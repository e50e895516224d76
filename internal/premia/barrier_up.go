package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// OptCallUpOut is an up-and-out call: it pays (S_T − K)⁺ unless the spot
// touches the upper barrier "U" before expiry, in which case the rebate
// (paid at expiry) is received instead.
const OptCallUpOut = "CallUpOut"

// MethodCFCallUpOut prices it by the Reiner–Rubinstein closed formula.
const MethodCFCallUpOut = "CF_CallUpOut"

// upBarrierFrom reads the up-barrier option's parameters.
func upBarrierFrom(p *Problem) (barrierParams, error) {
	var o barrierParams
	var err error
	if o.vanillaParams, err = vanillaFrom(p); err != nil {
		return o, err
	}
	if o.L, err = p.Params.NeedPositive("U"); err != nil {
		return o, err
	}
	o.Rebate = p.Params.Get("rebate", 0)
	return o, nil
}

// cfCallUpOut prices the up-and-out call in closed form
// (Reiner–Rubinstein). With U <= K the payoff region is entirely beyond
// the barrier, so the option is worth only its rebate.
func cfCallUpOut(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := upBarrierFrom(p)
	if err != nil {
		return Result{}, err
	}
	u := o.L // barrier level
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

// mcCallUpOut prices the up-and-out call by Monte Carlo with the
// Brownian-bridge correction for the upper barrier. Parameters: "paths",
// "mcsteps".
func mcCallUpOut(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := upBarrierFrom(p)
	if err != nil {
		return Result{}, err
	}
	u := o.L
	if m.S0 >= u {
		return Result{Price: o.Rebate * math.Exp(-m.R*o.T), Work: 1}, nil
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	steps, err := p.Params.size("mcsteps", mcDefaultSteps)
	if err != nil {
		return Result{}, err
	}
	if paths < 2 || steps < 1 {
		return Result{}, fmt.Errorf("premia: MC up-and-out needs paths >= 2 and mcsteps >= 1")
	}
	rng := mathutil.NewRNG(mcSeed(p))
	dt := o.T / float64(steps)
	drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * dt
	vol := m.Sigma * math.Sqrt(dt)
	sig2dt := m.Sigma * m.Sigma * dt
	df := math.Exp(-m.R * o.T)
	lnU := math.Log(u)
	var w mathutil.Welford
	for i := 0; i < paths; i++ {
		x := math.Log(m.S0)
		alive := true
		survival := 1.0
		for k := 0; k < steps && alive; k++ {
			xNext := x + drift + vol*rng.Norm()
			if xNext >= lnU {
				alive = false
				break
			}
			pHit := math.Exp(-2 * (lnU - x) * (lnU - xNext) / sig2dt)
			survival *= 1 - pHit
			x = xNext
		}
		pay := o.Rebate
		if alive {
			st := math.Exp(x)
			pay = survival*payoffCall(st, o.K) + (1-survival)*o.Rebate
		}
		w.Add(df * pay)
	}
	return Result{
		Price: w.Mean(), PriceCI: w.HalfWidth95(),
		Work: float64(paths) * float64(steps),
	}, nil
}
