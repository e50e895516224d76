package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// ImpliedVol inverts the Black–Scholes formula: it returns the volatility
// at which the European call (or put) with the given parameters has the
// given market price. Newton–Raphson on vega with a bisection safeguard;
// accurate to ~1e-12 in price. It returns an error if the price violates
// the no-arbitrage bounds.
func ImpliedVol(price float64, m bsParams, k, t float64, call bool) (float64, error) {
	if k <= 0 || t <= 0 || m.S0 <= 0 {
		return 0, fmt.Errorf("premia: implied vol needs positive S0, K, T")
	}
	df := math.Exp(-m.R * t)
	dq := math.Exp(-m.Div * t)
	var lower, upper float64
	if call {
		lower = math.Max(m.S0*dq-k*df, 0)
		upper = m.S0 * dq
	} else {
		lower = math.Max(k*df-m.S0*dq, 0)
		upper = k * df
	}
	if price < lower-1e-12 || price > upper+1e-12 {
		return 0, fmt.Errorf("premia: price %v outside arbitrage bounds [%v, %v]", price, lower, upper)
	}

	formula := bsVanilla(call)
	value := func(sigma float64) (float64, float64) {
		mm := m
		mm.Sigma = sigma
		d1, _ := bsD1D2(mm, k, t)
		vega := m.S0 * dq * mathutil.NormPDF(d1) * math.Sqrt(t)
		pv, _ := formula(mm, k, t)
		return pv, vega
	}

	// Bracket: price is increasing in sigma.
	lo, hi := 1e-6, 5.0
	pLo, _ := value(lo)
	pHi, _ := value(hi)
	if price <= pLo {
		return lo, nil
	}
	if price >= pHi {
		return 0, fmt.Errorf("premia: implied vol above %v", hi)
	}
	sigma := 0.2 // standard seed
	for iter := 0; iter < 100; iter++ {
		pv, vega := value(sigma)
		diff := pv - price
		if math.Abs(diff) < 1e-12*math.Max(1, price) {
			return sigma, nil
		}
		// Shrink the bracket.
		if diff > 0 {
			hi = sigma
		} else {
			lo = sigma
		}
		// Newton step, falling back to bisection when it leaves the
		// bracket or vega vanishes (deep ITM/OTM).
		if vega > 1e-12 {
			next := sigma - diff/vega
			if next > lo && next < hi {
				sigma = next
				continue
			}
		}
		sigma = 0.5 * (lo + hi)
	}
	return sigma, nil
}

// ImpliedVolFromProblem reads the parameters from a vanilla problem and
// inverts the given market price.
func ImpliedVolFromProblem(p *Problem, price float64) (float64, error) {
	m, err := bsFrom(p)
	if err != nil {
		// Implied vol does not need sigma itself: tolerate its absence.
		if p.Params.Get("S0", 0) <= 0 {
			return 0, err
		}
		m = bsParams{
			S0:    p.Params.Get("S0", 0),
			R:     p.Params.Get("r", 0),
			Div:   p.Params.Get("divid", 0),
			Sigma: 0.2,
		}
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return 0, err
	}
	switch p.Option {
	case OptCallEuro:
		return ImpliedVol(price, m, o.K, o.T, true)
	case OptPutEuro:
		return ImpliedVol(price, m, o.K, o.T, false)
	default:
		return 0, fmt.Errorf("premia: implied vol defined for vanilla options, not %q", p.Option)
	}
}
