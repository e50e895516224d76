package premia

import (
	"cmp"
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// Greeks are the risk sensitivities of one claim, the "other risk
// features such as delta, gamma, vega" the paper's introduction names as
// the point of daily risk evaluation.
type Greeks struct {
	// Price is the base price (re-reported for convenience).
	Price float64
	// Delta is ∂V/∂S.
	Delta float64
	// Gamma is ∂²V/∂S².
	Gamma float64
	// Vega is ∂V/∂σ (per unit of volatility; for Heston, ∂V/∂√V0).
	Vega float64
	// Theta is −∂V/∂T (value decay per year of shrinking maturity).
	Theta float64
	// Rho is ∂V/∂r.
	Rho float64
}

// bsGreeks returns the full analytic sensitivity set of a European option
// under one-dimensional Black–Scholes, its price and delta those of the
// closed forms; used both as the fast path for the closed-form methods
// and as the oracle the bump engine is tested against.
func bsGreeks(m bsParams, k, t float64, call bool) Greeks {
	d1, d2 := bsD1D2(m, k, t)
	df := math.Exp(-m.R * t)
	dq := math.Exp(-m.Div * t)
	st := math.Sqrt(t)
	pdf := mathutil.NormPDF(d1)
	var g Greeks
	if call {
		g.Price, g.Delta = bsCallPrice(m, k, t)
		g.Rho = k * t * df * mathutil.NormCDF(d2)
		g.Theta = -m.S0*dq*pdf*m.Sigma/(2*st) -
			m.R*k*df*mathutil.NormCDF(d2) + m.Div*m.S0*dq*mathutil.NormCDF(d1)
	} else {
		g.Price, g.Delta = bsPutPrice(m, k, t)
		g.Rho = -k * t * df * mathutil.NormCDF(-d2)
		g.Theta = -m.S0*dq*pdf*m.Sigma/(2*st) +
			m.R*k*df*mathutil.NormCDF(-d2) - m.Div*m.S0*dq*mathutil.NormCDF(-d1)
	}
	g.Gamma = dq * pdf / (m.S0 * m.Sigma * st)
	g.Vega = m.S0 * dq * pdf * st
	return g
}

// VolParam returns the name of the volatility-like parameter of the given
// model ("sigma", "sigma0" or "V0"): the one ComputeGreeks bumps for vega,
// and the one generic risk scenarios bump across heterogeneous books.
func VolParam(model string) (string, error) {
	switch model {
	case ModelBS1D, ModelBSND:
		return "sigma", nil
	case ModelLocVol:
		return "sigma0", nil
	case ModelHeston:
		return "V0", nil
	default:
		return "", fmt.Errorf("premia: no vega parameter for model %q", model)
	}
}

// The bumps ComputeGreeks reprices at: relative spot and volatility
// bumps for delta/gamma and vega, an absolute rate bump for rho, and one
// calendar day of maturity for theta.
const (
	spotBump = 0.01
	volBump  = 0.01
	rateBump = 0.001
	timeBump = 1.0 / 365
)

// ComputeGreeks returns the full sensitivity set of any registered
// problem. Closed-form Black–Scholes vanillas use the analytic formulas;
// any other problem is priced as one eight-cell Sweep: the base, S0 ± hs,
// the model's volatility parameter ± hv, r ± rateBump and T − ht, each
// cell to the bit as the bumped problem's own Compute. The cells share
// the seed parameter, so Monte Carlo noise largely cancels in the
// differences (common random numbers, the standard practice the paper's
// risk-evaluation context assumes).
func ComputeGreeks(p *Problem) (Greeks, error) {
	if err := p.Validate(); err != nil {
		return Greeks{}, err
	}
	// Analytic fast path.
	if p.Model == ModelBS1D && (p.Method == MethodCFCall || p.Method == MethodCFPut) {
		m, err := bsFrom(p)
		if err != nil {
			return Greeks{}, err
		}
		o, err := vanillaFrom(p)
		if err != nil {
			return Greeks{}, err
		}
		return bsGreeks(m, o.K, o.T, p.Method == MethodCFCall), nil
	}
	s0, errS0 := p.Params.NeedPositive("S0")
	vp, errVol := VolParam(p.Model)
	vol := 0.0
	if errVol == nil {
		vol, errVol = p.Params.NeedPositive(vp)
	}
	t, errT := p.Params.NeedPositive("T")
	hs, hv, ht := spotBump*s0, volBump*vol, timeBump
	if ht >= t {
		ht = t / 2
	}
	r := p.Params.Get("r", 0)
	at := func(param string, v float64) []Override { return []Override{{Param: param, Value: v}} }
	cells := [][]Override{nil,
		at("S0", s0+hs), at("S0", s0-hs),
		at(vp, vol+hv), at(vp, vol-hv),
		at("r", r+rateBump), at("r", r-rateBump),
		at("T", t-ht), // shorter maturity
	}
	// The first failure in cell order is reported, a parameter that does
	// not read after the cells before it: as pricing one bump at a time.
	var unread error
	switch {
	case errS0 != nil:
		cells, unread = cells[:1], errS0
	case errVol != nil:
		cells, unread = cells[:3], errVol
	case errT != nil:
		cells, unread = cells[:7], errT
	}
	results, errs := (&Sweep{Base: p, Cells: cells}).Compute()
	if err := cmp.Or(append(errs, unread)...); err != nil {
		return Greeks{}, err
	}
	v := func(k int) float64 { return results[k].Price }
	g := Greeks{
		Price: v(0),
		Delta: (v(1) - v(2)) / (2 * hs),
		Gamma: (v(1) - 2*v(0) + v(2)) / (hs * hs),
		Vega:  (v(3) - v(4)) / (2 * hv),
		Rho:   (v(5) - v(6)) / (2 * rateBump),
		Theta: (v(7) - v(0)) / ht,
	}
	if p.Model == ModelHeston {
		// Report Heston vega per unit of initial *volatility* √V0, which
		// makes magnitudes comparable to Black–Scholes vega.
		g.Vega = g.Vega * 2 * math.Sqrt(vol)
	}
	return g, nil
}
