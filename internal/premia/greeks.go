package premia

import (
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
// under one-dimensional Black–Scholes; used both as the fast path for the
// closed-form methods and as the oracle the bump engine is tested
// against.
func bsGreeks(m bsParams, k, t float64, call bool) Greeks {
	d1, d2 := bsD1D2(m, k, t)
	df := math.Exp(-m.R * t)
	dq := math.Exp(-m.Div * t)
	st := math.Sqrt(t)
	pdf := mathutil.NormPDF(d1)
	var g Greeks
	if call {
		g.Price = m.S0*dq*mathutil.NormCDF(d1) - k*df*mathutil.NormCDF(d2)
		g.Delta = dq * mathutil.NormCDF(d1)
		g.Rho = k * t * df * mathutil.NormCDF(d2)
		g.Theta = -m.S0*dq*pdf*m.Sigma/(2*st) -
			m.R*k*df*mathutil.NormCDF(d2) + m.Div*m.S0*dq*mathutil.NormCDF(d1)
	} else {
		g.Price = k*df*mathutil.NormCDF(-d2) - m.S0*dq*mathutil.NormCDF(-d1)
		g.Delta = -dq * mathutil.NormCDF(-d1)
		g.Rho = -k * t * df * mathutil.NormCDF(-d2)
		g.Theta = -m.S0*dq*pdf*m.Sigma/(2*st) +
			m.R*k*df*mathutil.NormCDF(-d2) - m.Div*m.S0*dq*mathutil.NormCDF(-d1)
	}
	g.Gamma = dq * pdf / (m.S0 * m.Sigma * st)
	g.Vega = m.S0 * dq * pdf * st
	return g
}

// VolParam returns the name of the volatility-like parameter of the given
// model ("sigma", "sigma0" or "V0"), so generic risk scenarios can bump
// volatility across heterogeneous books.
func VolParam(model string) (string, error) { return vegaParam(model) }

// vegaParam returns the volatility-like parameter the bump engine shifts
// for the problem's model.
func vegaParam(model string) (string, error) {
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
// everything else is bumped and repriced with common random numbers (the
// problems share the seed parameter, so Monte Carlo noise largely cancels
// in the differences — the standard practice the paper's risk-evaluation
// context assumes).
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
	price := func(q *Problem) (float64, error) {
		res, err := q.Compute()
		if err != nil {
			return 0, err
		}
		return res.Price, nil
	}
	base, err := price(p)
	if err != nil {
		return Greeks{}, err
	}
	g := Greeks{Price: base}

	s0, err := p.Params.NeedPositive("S0")
	if err != nil {
		return Greeks{}, err
	}
	hs := spotBump * s0
	up, err := price(p.Clone().Set("S0", s0+hs))
	if err != nil {
		return Greeks{}, err
	}
	dn, err := price(p.Clone().Set("S0", s0-hs))
	if err != nil {
		return Greeks{}, err
	}
	g.Delta = (up - dn) / (2 * hs)
	g.Gamma = (up - 2*base + dn) / (hs * hs)

	vp, err := vegaParam(p.Model)
	if err != nil {
		return Greeks{}, err
	}
	vol, err := p.Params.NeedPositive(vp)
	if err != nil {
		return Greeks{}, err
	}
	hv := volBump * vol
	vUp, err := price(p.Clone().Set(vp, vol+hv))
	if err != nil {
		return Greeks{}, err
	}
	vDn, err := price(p.Clone().Set(vp, vol-hv))
	if err != nil {
		return Greeks{}, err
	}
	if p.Model == ModelHeston {
		// Report Heston vega per unit of initial *volatility* √V0, which
		// makes magnitudes comparable to Black–Scholes vega.
		dPdV := (vUp - vDn) / (2 * hv)
		g.Vega = dPdV * 2 * math.Sqrt(vol)
	} else {
		g.Vega = (vUp - vDn) / (2 * hv)
	}

	r := p.Params.Get("r", 0)
	rUp, err := price(p.Clone().Set("r", r+rateBump))
	if err != nil {
		return Greeks{}, err
	}
	rDn, err := price(p.Clone().Set("r", r-rateBump))
	if err != nil {
		return Greeks{}, err
	}
	g.Rho = (rUp - rDn) / (2 * rateBump)

	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Greeks{}, err
	}
	ht := timeBump
	if ht >= t {
		ht = t / 2
	}
	tDn, err := price(p.Clone().Set("T", t-ht)) // shorter maturity
	if err != nil {
		return Greeks{}, err
	}
	g.Theta = (tDn - base) / ht
	return g, nil
}
