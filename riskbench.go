// Package riskbench is a risk-management benchmark for parallel
// architectures, reproducing Chancelier, Lapeyre and Lelong, "Using Premia
// and Nsp for Constructing a Risk Management Benchmark for Testing
// Parallel Architecture" (IPPS 2009 / CCPE 2014).
//
// The package is a façade over the implementation packages:
//
//   - a from-scratch option-pricing library (closed formulas, trees,
//     Crank–Nicolson finite differences, Monte Carlo, Longstaff–Schwartz
//     American Monte Carlo, Heston, local volatility);
//   - an Nsp-style object system with binary serialization, compression,
//     direct file→serial loading (SLoad) and architecture-independent
//     save files in the same stream;
//   - an MPI-flavoured message-passing layer over in-process and TCP
//     transports, plus a discrete-event cluster simulator with NFS and
//     Gigabit-Ethernet models;
//   - the paper's Robin-Hood task farm with its three communication
//     strategies (full load, NFS, serialized load), task batching and
//     hierarchical sub-masters;
//   - portfolio generators and a sweep harness that regenerate the
//     paper's Tables I–III.
//
// Quick start:
//
//	p := riskbench.NewProblem().
//		SetModel(riskbench.ModelBS1D).
//		SetOption(riskbench.OptCallEuro).
//		SetMethod(riskbench.MethodCFCall).
//		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).
//		Set("K", 100).Set("T", 1)
//	res, err := p.Compute()
//
// Reproduce a table from the paper:
//
//	tbl, err := riskbench.RunTable(riskbench.TableIII())
//	fmt.Println(tbl.Format())
package riskbench

import (
	"riskbench/internal/bench"
	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
)

// Problem is a pricing problem: the (model, option, method) triple plus
// its parameters, Premia's PremiaModel.
type Problem = premia.Problem

// PricingResult is the output of Problem.Compute.
type PricingResult = premia.Result

// Model names accepted by Problem.SetModel.
const (
	ModelBS1D        = premia.ModelBS1D
	ModelBSND        = premia.ModelBSND
	ModelLocVol      = premia.ModelLocVol
	ModelHeston      = premia.ModelHeston
	ModelMerton      = premia.ModelMerton
	ModelVasicek     = premia.ModelVasicek
	ModelConstHazard = premia.ModelConstHazard
)

// Asset class names accepted by Problem.SetAsset ("equity" is the
// default).
const (
	AssetRate   = premia.AssetRate
	AssetCredit = premia.AssetCredit
)

// Option names accepted by Problem.SetOption.
const (
	OptCallEuro          = premia.OptCallEuro
	OptPutEuro           = premia.OptPutEuro
	OptCallDownOut       = premia.OptCallDownOut
	OptPutAmer           = premia.OptPutAmer
	OptPutBasketEuro     = premia.OptPutBasketEuro
	OptPutBasketAmer     = premia.OptPutBasketAmer
	OptDigitalCall       = premia.OptDigitalCall
	OptDigitalPut        = premia.OptDigitalPut
	OptAsianCallFix      = premia.OptAsianCallFix
	OptAsianPutFix       = premia.OptAsianPutFix
	OptLookbackCallFloat = premia.OptLookbackCallFloat
	OptCallBasketEuro    = premia.OptCallBasketEuro
	OptCallUpOut         = premia.OptCallUpOut
	OptZCBond            = premia.OptZCBond
	OptZCCall            = premia.OptZCCall
	OptDefaultableBond   = premia.OptDefaultableBond
	OptCDS               = premia.OptCDS
)

// Method names accepted by Problem.SetMethod.
const (
	MethodCFCall        = premia.MethodCFCall
	MethodCFPut         = premia.MethodCFPut
	MethodCFCallDownOut = premia.MethodCFCallDownOut
	MethodCFCallUpOut   = premia.MethodCFCallUpOut
	MethodCFHeston      = premia.MethodCFHeston
	MethodCFMerton      = premia.MethodCFMerton
	MethodCFDigital     = premia.MethodCFDigital
	MethodCFLookback    = premia.MethodCFLookback
	MethodTreeCRR       = premia.MethodTreeCRR
	MethodTreeTrinomial = premia.MethodTreeTrinomial
	MethodFDCrank       = premia.MethodFDCrank
	MethodFDBS          = premia.MethodFDBS
	MethodFDPSOR        = premia.MethodFDPSOR
	MethodMCEuro        = premia.MethodMCEuro
	MethodMCHeston      = premia.MethodMCHeston
	MethodMCMerton      = premia.MethodMCMerton
	MethodMCBasket      = premia.MethodMCBasket
	MethodQMCBasket     = premia.MethodQMCBasket
	MethodMCLocalVol    = premia.MethodMCLocalVol
	MethodMCAsianCV     = premia.MethodMCAsianCV
	MethodMCLookback    = premia.MethodMCLookback
	MethodMCAmerLSM     = premia.MethodMCAmerLSM
	MethodMCAmerAlfonsi = premia.MethodMCAmerAlfonsi
	MethodCFVasicek     = premia.MethodCFVasicek
	MethodMCVasicek     = premia.MethodMCVasicek
	MethodCFCredit      = premia.MethodCFCredit
	MethodMCCredit      = premia.MethodMCCredit
)

// NewProblem returns an empty equity pricing problem.
func NewProblem() *Problem { return premia.New() }

// LoadProblem reads a problem from an nsp save file written by
// Problem.Save.
func LoadProblem(path string) (*Problem, error) { return premia.Load(path) }

// Methods lists every registered pricing method.
func Methods() []string { return premia.Methods() }

// Portfolio is a named collection of pricing problems with virtual costs.
type Portfolio = portfolio.Portfolio

// RealisticPortfolio generates the paper's §4.3 7931-claim bank
// portfolio.
func RealisticPortfolio() *Portfolio { return portfolio.Realistic() }

// ToyPortfolio generates the §4.2 portfolio of n closed-form vanillas
// (the paper uses 10,000).
func ToyPortfolio(n int) *Portfolio { return portfolio.Toy(n) }

// RegressionPortfolio generates the §4.1 non-regression test suite.
func RegressionPortfolio() *Portfolio { return portfolio.Regression() }

// MixedPortfolio generates a multi-asset book of ~n claims (equity,
// rates, credit) — an extension beyond the paper's equity-only study.
func MixedPortfolio(n int) *Portfolio { return portfolio.Mixed(n) }

// Strategy is a master→worker communication strategy.
type Strategy = farm.Strategy

// The paper's three communication strategies.
const (
	FullLoad       = farm.FullLoad
	NFSLoad        = farm.NFSLoad
	SerializedLoad = farm.SerializedLoad
)

// TableSpec describes one of the paper's evaluation tables.
type TableSpec = bench.TableSpec

// Table is a completed sweep.
type Table = bench.Table

// TableI returns the spec reproducing the paper's Table I (non-regression
// test speedups, 2–256 CPUs).
func TableI() TableSpec { return bench.TableI() }

// TableII returns the spec reproducing Table II (toy portfolio strategy
// comparison, 2–50 CPUs).
func TableII() TableSpec { return bench.TableII() }

// TableIII returns the spec reproducing Table III (realistic portfolio,
// 2–512 CPUs).
func TableIII() TableSpec { return bench.TableIII() }

// RunTable executes a table sweep on the simulated cluster.
func RunTable(spec TableSpec) (*Table, error) { return bench.RunTable(spec) }

// Greeks is the full sensitivity set of one claim.
type Greeks = premia.Greeks

// ComputeGreeks returns delta, gamma, vega, theta and rho for any
// registered problem (analytic where available, bump-and-reprice with
// common random numbers otherwise: 1 % in spot and volatility, 10 bp in
// the rate, one day of maturity).
func ComputeGreeks(p *Problem) (Greeks, error) {
	return premia.ComputeGreeks(p)
}

// Scenario is a named joint market move used by the risk engine.
type Scenario = risk.Scenario

// RiskEngine revalues portfolios under scenarios on a live local farm.
type RiskEngine = risk.Engine

// Valuation is a revaluation surface (base + per-scenario values).
type Valuation = risk.Valuation

// SpotLadder, VolLadder, RateShifts and StressScenarios are the standard
// scenario sets of the risk engine.
func SpotLadder() []Scenario      { return risk.SpotLadder() }
func VolLadder() []Scenario       { return risk.VolLadder() }
func RateShifts() []Scenario      { return risk.RateShifts() }
func StressScenarios() []Scenario { return risk.StressScenarios() }

// VaR returns the empirical value-at-risk of a P&L sample at the given
// confidence level.
func VaR(pnls []float64, alpha float64) float64 { return risk.VaR(pnls, alpha) }

// ImpliedVol inverts a vanilla problem's Black–Scholes price: it returns
// the volatility at which the problem's option is worth the given market
// price.
func ImpliedVol(p *Problem, price float64) (float64, error) {
	return premia.ImpliedVolFromProblem(p, price)
}
