package premia

import (
	"fmt"
	"math"
)

// MethodTreeTrinomial is the Kamrad–Ritchken trinomial lattice, a second
// tree method (Premia ships several): three branches per node with a
// stretch parameter λ, typically converging more smoothly than CRR.
const MethodTreeTrinomial = "TR_Trinomial"

// maxForwardMiss bounds n·|ln(pu·e^Δx + pm + pd·e^−Δx) − (r − q)·Δt|, the
// trinomial's log-forward error over the whole tree. Ordinary rows sit far
// below it (3e-6 at sigma 0.2, T 1, 256 steps; 0.004 at sigma 2, T 2,
// 1 024 steps); sigma 5, T 2, 1 024 steps misses by 0.15 and prices a call
// 14 % off.
const maxForwardMiss = 0.05

// treeTrinomial prices European calls/puts and American puts on a
// trinomial lattice. Method parameters: "steps" (default 256), "lambda"
// (stretch, default √1.5).
func treeTrinomial(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	n, err := p.Params.size("steps", 256)
	if err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("premia: TR_Trinomial needs steps >= 1, got %d", n)
	}
	lambda := p.Params.Get("lambda", math.Sqrt(1.5))
	if lambda < 1 {
		return Result{}, fmt.Errorf("premia: TR_Trinomial needs lambda >= 1, got %v", lambda)
	}
	dt := o.T / float64(n)
	dx := lambda * m.Sigma * math.Sqrt(dt)
	mu := m.R - m.Div - 0.5*m.Sigma*m.Sigma
	// Kamrad–Ritchken branch probabilities.
	inv2l2 := 1 / (2 * lambda * lambda)
	tilt := mu * math.Sqrt(dt) / (2 * lambda * m.Sigma)
	pu := inv2l2 + tilt
	pd := inv2l2 - tilt
	pm := 1 - 2*inv2l2
	if pu <= 0 || pd <= 0 || pm < 0 {
		return Result{}, fmt.Errorf("premia: TR_Trinomial probabilities out of range (pu=%v pm=%v pd=%v); increase steps or lambda", pu, pm, pd)
	}
	if err := latticeInRange(MethodTreeTrinomial, m.S0, float64(n)*dx); err != nil {
		return Result{}, err
	}
	// The tilt is first order in the drift, so at high volatility the
	// branches stop carrying the forward and the tree silently misprices
	// (a call at sigma 5, T 5 on 256 steps: 1.6 against CF_Call's 90.5).
	edx := math.Exp(dx)
	if miss := float64(n) * math.Abs(math.Log(pu*edx+pm+pd/edx)-(m.R-m.Div)*dt); !(miss <= maxForwardMiss) {
		return Result{}, fmt.Errorf("premia: TR_Trinomial branch probabilities miss the forward by %.3g in log over %d steps (at most %v); increase steps, or lower sigma or T", miss, n, maxForwardMiss)
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
		return Result{}, fmt.Errorf("premia: TR_Trinomial does not price %q", p.Option)
	}

	// Node j at depth t ranges over [-t, t]; index j+t in the slice.
	width := 2*n + 1
	v := make([]float64, width)
	s := m.S0 * math.Exp(-float64(n)*dx)
	for j := 0; j < width; j++ {
		v[j] = payoff(s)
		s *= edx
	}
	var v1u, v1d float64
	for step := n - 1; step >= 0; step-- {
		w := 2*step + 1
		s = m.S0 * math.Exp(-float64(step)*dx)
		for j := 0; j < w; j++ {
			cont := disc * (pd*v[j] + pm*v[j+1] + pu*v[j+2])
			if american {
				if ex := payoff(s); ex > cont {
					cont = ex
				}
			}
			v[j] = cont
			s *= edx
		}
		if step == 1 {
			v1d, v1u = v[0], v[2]
		}
	}
	res := Result{Price: v[0], Work: float64(n) * float64(n)}
	if n >= 2 {
		res.Delta = (v1u - v1d) / (m.S0*edx - m.S0/edx)
		res.HasDelta = true
	} else {
		// One-step tree: use the immediate branches.
		res.Delta = 0
	}
	return res, nil
}
