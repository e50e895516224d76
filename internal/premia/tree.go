package premia

import (
	"fmt"
	"math"
)

// treeCRR implements the Cox–Ross–Rubinstein binomial tree for European
// calls/puts and American puts in the one-dimensional Black–Scholes model.
// Method parameter: "steps" (default 512).
func treeCRR(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	n, err := p.Params.size("steps", 512)
	if err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("premia: TR_CRR needs steps >= 1, got %d", n)
	}
	dt := o.T / float64(n)
	u := math.Exp(m.Sigma * math.Sqrt(dt))
	d := 1 / u
	growth := math.Exp((m.R - m.Div) * dt)
	q := (growth - d) / (u - d)
	if q <= 0 || q >= 1 {
		return Result{}, fmt.Errorf("premia: TR_CRR risk-neutral probability %v out of (0,1); increase steps", q)
	}
	if err := latticeInRange(MethodTreeCRR, m.S0, float64(n)*m.Sigma*math.Sqrt(dt)); err != nil {
		return Result{}, err
	}
	disc := math.Exp(-m.R * dt)

	var payoff func(s float64) float64
	american := false
	switch p.Option {
	case OptCallEuro:
		payoff = func(s float64) float64 { return payoffCall(s, o.K) }
	case OptPutEuro:
		payoff = func(s float64) float64 { return payoffPut(s, o.K) }
	case OptPutAmer:
		payoff = func(s float64) float64 { return payoffPut(s, o.K) }
		american = true
	case OptCallAmer:
		payoff = func(s float64) float64 { return payoffCall(s, o.K) }
		american = true
	default:
		return Result{}, fmt.Errorf("premia: TR_CRR does not price %q", p.Option)
	}

	// Terminal layer. Node j has j up-moves: S = S0 u^j d^(n-j).
	v := make([]float64, n+1)
	s := m.S0 * math.Pow(d, float64(n))
	uu := u * u
	for j := 0; j <= n; j++ {
		v[j] = payoff(s)
		s *= uu
	}
	// Backward induction, keeping the two first-step values for the delta.
	var v1u, v1d float64
	for step := n - 1; step >= 0; step-- {
		s = m.S0 * math.Pow(d, float64(step))
		for j := 0; j <= step; j++ {
			cont := disc * ((1-q)*v[j] + q*v[j+1])
			if american {
				if ex := payoff(s); ex > cont {
					cont = ex
				}
			}
			v[j] = cont
			s *= uu
		}
		if step == 1 {
			v1d, v1u = v[0], v[1]
		}
	}
	res := Result{Price: v[0], Work: float64(n) * float64(n) / 2}
	if n >= 2 {
		res.Delta = (v1u - v1d) / (m.S0*u - m.S0*d)
		res.HasDelta = true
	}
	return res, nil
}

// latticeInRange refuses a tree whose extreme nodes S0·exp(±span) leave
// the normal float64 range, as a volatility of a few thousand percent over
// years makes them: the bottom node underflows to zero, so every node
// above it, built by multiplication, is zero too and a call prices at 0.
// Like pdeGrid.topFinite, the problem fails rather than price a wrong
// number.
func latticeInRange(method string, s0, span float64) error {
	lo, hi := math.Log(s0)-span, math.Log(s0)+span
	if lo < math.Log(0x1p-1022) || hi > math.Log(math.MaxFloat64) {
		return fmt.Errorf("premia: %s lattice spans ln S = %.4g to %.4g, outside the normal float64 range: sigma·√(T·steps) is too wide to price", method, lo, hi)
	}
	return nil
}
