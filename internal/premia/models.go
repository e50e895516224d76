package premia

import (
	"fmt"

	"riskbench/internal/mathutil"
)

// Registered model names.
const (
	ModelBS1D   = "BlackScholes1dim"
	ModelBSND   = "BlackScholesNdim"
	ModelLocVol = "LocalVol1dim"
	ModelHeston = "Heston1dim"
)

// Registered option names.
const (
	OptCallEuro       = "CallEuro"
	OptPutEuro        = "PutEuro"
	OptCallDownOut    = "CallDownOut"
	OptPutAmer        = "PutAmer"
	OptCallAmer       = "CallAmer"
	OptPutBasketEuro  = "PutBasketEuro"
	OptCallBasketEuro = "CallBasketEuro"
	OptPutBasketAmer  = "PutBasketAmer"
)

// bsParams are the parameters of the one-dimensional Black–Scholes model:
// spot, short rate, continuous dividend yield and volatility.
type bsParams struct {
	S0, R, Div, Sigma float64
}

func bsFrom(p *Problem) (bsParams, error) {
	var m bsParams
	var err error
	if m.S0, err = p.Params.NeedPositive("S0"); err != nil {
		return m, err
	}
	if m.Sigma, err = p.Params.NeedPositive("sigma"); err != nil {
		return m, err
	}
	m.R = p.Params.Get("r", 0)
	m.Div = p.Params.Get("divid", 0)
	return m, nil
}

// mbsParams are the parameters of the n-dimensional Black–Scholes model
// with identical marginals and single-factor correlation rho.
type mbsParams struct {
	Dim               int
	S0, R, Div, Sigma float64
	Rho               float64
}

func mbsFrom(p *Problem) (mbsParams, error) {
	var m mbsParams
	base, err := bsFrom(p)
	if err != nil {
		return m, err
	}
	m.S0, m.R, m.Div, m.Sigma = base.S0, base.R, base.Div, base.Sigma
	if m.Dim, err = p.Params.size("dim", 0); err != nil {
		return m, err
	}
	if m.Dim < 1 {
		return m, fmt.Errorf("premia: model %s needs dim >= 1", ModelBSND)
	}
	m.Rho = p.Params.Get("rho", 0)
	if m.Dim > 1 && (m.Rho <= -1.0/float64(m.Dim-1) || m.Rho > 1) {
		return m, fmt.Errorf("premia: correlation %v not admissible for dim %d", m.Rho, m.Dim)
	}
	return m, nil
}

// lvParams are the parameters of the parametric local-volatility model
//
//	σ(t, S) = σ0 · (1 + skew·x) · (1 + term·t),  x = ln(S/S0),
//
// clamped to [lvMinVol, lvMaxVol]; a smooth, skewed, term-dependent
// surface in the spirit of Dupire-calibrated models, rich enough to make
// Monte Carlo the only applicable method (as in §4.3 of the paper).
type lvParams struct {
	S0, R, Div         float64
	Sigma0, Skew, Term float64
}

const (
	lvMinVol = 0.01
	lvMaxVol = 1.5
)

func lvFrom(p *Problem) (lvParams, error) {
	var m lvParams
	var err error
	if m.S0, err = p.Params.NeedPositive("S0"); err != nil {
		return m, err
	}
	if m.Sigma0, err = p.Params.NeedPositive("sigma0"); err != nil {
		return m, err
	}
	m.R = p.Params.Get("r", 0)
	m.Div = p.Params.Get("divid", 0)
	m.Skew = p.Params.Get("skew", 0)
	m.Term = p.Params.Get("termslope", 0)
	return m, nil
}

// Vol returns the local volatility at time t and log-moneyness
// x = ln(S/S0), the state the log-Euler scheme steps.
func (m lvParams) Vol(t, x float64) float64 {
	v := m.Sigma0 * (1 + m.Skew*x) * (1 + m.Term*t)
	if v < lvMinVol {
		return lvMinVol
	}
	if v > lvMaxVol {
		return lvMaxVol
	}
	return v
}

// hestonParams are the parameters of the Heston stochastic-volatility
// model dS = S((r−q)dt + √V dW₁), dV = κ(θ−V)dt + σᵥ√V dW₂ with
// d⟨W₁,W₂⟩ = ρ dt.
type hestonParams struct {
	S0, R, Div                    float64
	V0, Kappa, Theta, SigmaV, Rho float64
}

func hestonFrom(p *Problem) (hestonParams, error) {
	var m hestonParams
	var err error
	if m.S0, err = p.Params.NeedPositive("S0"); err != nil {
		return m, err
	}
	if m.V0, err = p.Params.NeedPositive("V0"); err != nil {
		return m, err
	}
	if m.Kappa, err = p.Params.NeedPositive("kappa"); err != nil {
		return m, err
	}
	if m.Theta, err = p.Params.NeedPositive("theta"); err != nil {
		return m, err
	}
	if m.SigmaV, err = p.Params.NeedPositive("sigmaV"); err != nil {
		return m, err
	}
	m.R = p.Params.Get("r", 0)
	m.Div = p.Params.Get("divid", 0)
	m.Rho = p.Params.Get("rhoSV", 0)
	if m.Rho <= -1 || m.Rho >= 1 {
		return m, fmt.Errorf("premia: Heston correlation %v out of (-1,1)", m.Rho)
	}
	return m, nil
}

// vanillaParams are the parameters shared by every option: strike and
// maturity; barrier options add the barrier level and rebate.
type vanillaParams struct {
	K, T float64
}

func vanillaFrom(p *Problem) (vanillaParams, error) {
	var o vanillaParams
	var err error
	if o.K, err = p.Params.NeedPositive("K"); err != nil {
		return o, err
	}
	if o.T, err = p.Params.NeedPositive("T"); err != nil {
		return o, err
	}
	return o, nil
}

// barrierParams extend vanillaParams with a barrier level and rebate.
type barrierParams struct {
	vanillaParams
	B, Rebate float64
}

// barrierFrom reads a barrier option's parameters, its level under key:
// "L" for a down barrier, "U" for an up barrier.
func barrierFrom(p *Problem, key string) (barrierParams, error) {
	var o barrierParams
	var err error
	if o.vanillaParams, err = vanillaFrom(p); err != nil {
		return o, err
	}
	if o.B, err = p.Params.NeedPositive(key); err != nil {
		return o, err
	}
	o.Rebate = p.Params.Get("rebate", 0)
	return o, nil
}

// payoffCall and payoffPut are the terminal payoffs.
func payoffCall(s, k float64) float64 {
	if s > k {
		return s - k
	}
	return 0
}

func payoffPut(s, k float64) float64 {
	if s < k {
		return k - s
	}
	return 0
}

// vanillaPayoff is the payoff at spot s of a call struck at k, else of a
// put.
func vanillaPayoff(call bool, s, k float64) float64 {
	if call {
		return payoffCall(s, k)
	}
	return payoffPut(s, k)
}

// pathwiseDelta is the pathwise delta of a call (else a put) struck at k
// on a path ending at s from s0: ±s/s0 in the money, 0 out of it.
func pathwiseDelta(call bool, s, k, s0 float64) float64 {
	switch {
	case call && s > k:
		return s / s0
	case !call && s < k:
		return -s / s0
	}
	return 0
}

// basketValue returns the equally-weighted average of the components.
func basketValue(s []float64) float64 {
	return mathutil.Mean(s)
}
