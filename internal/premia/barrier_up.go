package premia

import (
	"math"

	"riskbench/internal/mathutil"
)

// OptCallUpOut is an up-and-out call: it pays (S_T − K)⁺ unless the spot
// touches the upper barrier "U" before expiry, in which case the rebate
// (paid at expiry) is received instead.
const OptCallUpOut = "CallUpOut"

// MethodCFCallUpOut prices it by the Reiner–Rubinstein closed formula.
const MethodCFCallUpOut = "CF_CallUpOut"

// cfCallUpOut prices the up-and-out call in closed form
// (Reiner–Rubinstein). With U <= K the payoff region is entirely beyond
// the barrier, so the option is worth only its rebate.
func cfCallUpOut(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := barrierFrom(p, "U")
	if err != nil {
		return Result{}, err
	}
	u := o.B
	if m.S0 >= u {
		return Result{Price: o.Rebate * math.Exp(-m.R*o.T), HasDelta: true, Work: 1}, nil
	}
	price := upOutCall(m, o.K, o.T, u)
	if o.Rebate != 0 {
		price += o.Rebate * math.Exp(-m.R*o.T) * upInProbability(m, o.T, u)
	}
	const h = 1e-4
	upBump, dnBump := m, m
	upBump.S0 = m.S0 * (1 + h)
	dnBump.S0 = m.S0 * (1 - h)
	delta := (upOutCall(upBump, o.K, o.T, u) - upOutCall(dnBump, o.K, o.T, u)) / (2 * h * m.S0)
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 2}, nil
}

// upOutCall is the rebate-free Reiner–Rubinstein up-and-out call for
// S0 < U.
func upOutCall(m bsParams, k, t, u float64) float64 {
	if u <= k {
		// Any in-the-money terminal spot lies beyond the barrier: the
		// option cannot pay.
		return 0
	}
	sig2 := m.Sigma * m.Sigma
	lambda := (m.R - m.Div + 0.5*sig2) / sig2
	st := m.Sigma * math.Sqrt(t)
	dq := math.Exp(-m.Div * t)
	df := math.Exp(-m.R * t)
	hs := u / m.S0
	x1 := math.Log(m.S0/u)/st + lambda*st
	y := math.Log(u*u/(m.S0*k))/st + lambda*st
	y1 := math.Log(u/m.S0)/st + lambda*st
	// Up-and-in call (H > K), Haug's formula:
	cui := m.S0*dq*mathutil.NormCDF(x1) - k*df*mathutil.NormCDF(x1-st) -
		m.S0*dq*math.Pow(hs, 2*lambda)*(mathutil.NormCDF(-y)-mathutil.NormCDF(-y1)) +
		k*df*math.Pow(hs, 2*lambda-2)*(mathutil.NormCDF(-y+st)-mathutil.NormCDF(-y1+st))
	c, _ := bsCallPrice(m, k, t)
	v := c - cui
	if v < 0 {
		return 0
	}
	return v
}

// upInProbability is the risk-neutral probability of touching the upper
// barrier u before t, for a rebate paid at expiry.
func upInProbability(m bsParams, t, u float64) float64 {
	if m.S0 >= u {
		return 1
	}
	mu := m.R - m.Div - 0.5*m.Sigma*m.Sigma
	st := m.Sigma * math.Sqrt(t)
	b := math.Log(u / m.S0) // positive
	return mathutil.NormCDF((-b+mu*t)/st) + math.Exp(2*mu*b/(m.Sigma*m.Sigma))*mathutil.NormCDF((-b-mu*t)/st)
}
