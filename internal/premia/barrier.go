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

// barrierCall is a knock-out call on barrier parameter key, above the spot
// when up ("U") and below it otherwise ("L"), priced by out, its
// rebate-free Reiner–Rubinstein formula. Knock-out comes before rebate: a
// spot at or beyond the barrier is worth only the rebate, paid at expiry;
// otherwise the rebate adds rebate × the probability of a hit. The delta,
// a central difference of out, is effectively free and robust across
// out's branches.
func barrierCall(key string, up bool, out func(m bsParams, k, t, b float64) float64) func(*Problem) (Result, error) {
	return func(p *Problem) (Result, error) {
		m, err := bsFrom(p)
		if err != nil {
			return Result{}, err
		}
		o, err := barrierFrom(p, key)
		if err != nil {
			return Result{}, err
		}
		if up && m.S0 >= o.B || !up && m.S0 <= o.B {
			return Result{Price: o.Rebate * math.Exp(-m.R*o.T), HasDelta: true, Work: 1}, nil
		}
		price := out(m, o.K, o.T, o.B)
		if o.Rebate != 0 {
			price += o.Rebate * math.Exp(-m.R*o.T) * hitProbability(m, o.T, o.B, up)
		}
		const h = 1e-4
		at := func(f float64) float64 { b := m; b.S0 = m.S0 * f; return out(b, o.K, o.T, o.B) }
		delta := (at(1+h) - at(1-h)) / (2 * h * m.S0)
		return Result{Price: price, Delta: delta, HasDelta: true, Work: 2}, nil
	}
}

// hitProbability is the risk-neutral probability that the spot touches
// barrier b before t, above it when up and below it otherwise, used to
// value a rebate paid at expiry. The up barrier is the down one mirrored:
// both normal arguments change sign, which is exact in floating point.
func hitProbability(m bsParams, t, b float64, up bool) float64 {
	if up && m.S0 >= b || !up && m.S0 <= b {
		return 1
	}
	mu := m.R - m.Div - 0.5*m.Sigma*m.Sigma
	st := m.Sigma * math.Sqrt(t)
	x := math.Log(b / m.S0)
	near, far := (x-mu*t)/st, (x+mu*t)/st
	if up {
		near, far = -near, -far
	}
	return mathutil.NormCDF(near) + math.Exp(2*mu*x/(m.Sigma*m.Sigma))*mathutil.NormCDF(far)
}

// downOutCall is the rebate-free Reiner–Rubinstein down-and-out call price
// for S0 > L.
func downOutCall(m bsParams, k, t, l float64) float64 {
	sig2 := m.Sigma * m.Sigma
	lambda := (m.R - m.Div + 0.5*sig2) / sig2
	st := m.Sigma * math.Sqrt(t)
	dq := math.Exp(-m.Div * t)
	df := math.Exp(-m.R * t)
	hs := l / m.S0
	if k >= l {
		// Down-and-in call for L <= K, subtracted from the vanilla.
		c, _ := bsCallPrice(m, k, t)
		y := math.Log(l*l/(m.S0*k))/st + lambda*st
		cdi := m.S0*dq*math.Pow(hs, 2*lambda)*mathutil.NormCDF(y) -
			k*df*math.Pow(hs, 2*lambda-2)*mathutil.NormCDF(y-st)
		v := c - cdi
		if v < 0 {
			return 0
		}
		return v
	}
	// L > K branch.
	x1 := math.Log(m.S0/l)/st + lambda*st
	y1 := math.Log(l/m.S0)/st + lambda*st
	v := m.S0*dq*mathutil.NormCDF(x1) - k*df*mathutil.NormCDF(x1-st) -
		m.S0*dq*math.Pow(hs, 2*lambda)*mathutil.NormCDF(y1) +
		k*df*math.Pow(hs, 2*lambda-2)*mathutil.NormCDF(y1-st)
	if v < 0 {
		return 0
	}
	return v
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
