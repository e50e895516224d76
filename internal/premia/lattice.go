package premia

import (
	"fmt"
	"math"
)

// MethodTreeTrinomial is the Kamrad–Ritchken trinomial lattice, a second
// tree method (Premia ships several): three branches per node with a
// stretch parameter λ, typically converging more smoothly than CRR.
const MethodTreeTrinomial = "TR_Trinomial"

// lattice is what a tree method builds; treeMethod does the rest. A node
// of step i branches to len(branch) neighbouring nodes of step i+1; step
// i's lowest node is at spot low(i), each next one ratio times higher.
type lattice struct {
	// branch holds the two (binomial) or three (trinomial) risk-neutral
	// branch probabilities, lowest move first.
	branch []float64
	low    func(step int) float64
	// spread is the distance between step 1's outer spots, the delta's
	// denominator; work is the Result's.
	ratio, spread, work float64
}

// treeMethod prices European and American calls and puts in the 1-d
// Black–Scholes model on the lattice build lays out for "steps" (default
// defaultSteps): backward induction, with early exercise for the
// American options, and the delta from step 1's two outer nodes.
func treeMethod(p *Problem, name string, defaultSteps int, build func(p *Problem, m bsParams, n int, dt float64) (lattice, error)) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	n, err := p.Params.size("steps", defaultSteps)
	if err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("premia: %s needs steps >= 1, got %d", name, n)
	}
	dt := o.T / float64(n)
	l, err := build(p, m, n, dt)
	if err != nil {
		return Result{}, err
	}
	disc := math.Exp(-m.R * dt)

	call := p.Option == OptCallEuro || p.Option == OptCallAmer
	american := p.Option == OptCallAmer || p.Option == OptPutAmer
	if !call && !american && p.Option != OptPutEuro {
		return Result{}, fmt.Errorf("premia: %s does not price %q", name, p.Option)
	}

	// Node j of a step sits at low(step)·ratio^j; index j in the slice.
	fan := len(l.branch) - 1
	v := make([]float64, n*fan+1)
	s := l.low(n)
	for j := range v {
		v[j] = vanillaPayoff(call, s, o.K)
		s *= l.ratio
	}
	// Backward induction, keeping step 1's outer values for the delta.
	// The branch sum starts from the lowest branch's product and adds the
	// others in order.
	var v1u, v1d float64
	b0, b1, b2, ratio := l.branch[0], l.branch[1], l.branch[fan], l.ratio
	for step := n - 1; step >= 0; step-- {
		s = l.low(step)
		for j := 0; j <= step*fan; j++ {
			sum := b0*v[j] + b1*v[j+1]
			if fan == 2 {
				sum += b2 * v[j+2]
			}
			cont := disc * sum
			if american {
				if ex := vanillaPayoff(call, s, o.K); ex > cont {
					cont = ex
				}
			}
			v[j] = cont
			s *= ratio
		}
		if step == 1 {
			v1d, v1u = v[0], v[fan]
		}
	}
	res := Result{Price: v[0], Work: l.work}
	if n >= 2 {
		res.Delta = (v1u - v1d) / l.spread
		res.HasDelta = true
	}
	return res, nil
}

// treeCRR is the Cox–Ross–Rubinstein binomial tree, 512 steps by default.
func treeCRR(p *Problem) (Result, error) { return treeMethod(p, MethodTreeCRR, 512, crrLattice) }

// treeTrinomial is the Kamrad–Ritchken trinomial tree, 256 steps by default.
func treeTrinomial(p *Problem) (Result, error) {
	return treeMethod(p, MethodTreeTrinomial, 256, trinomialLattice)
}

// crrLattice is the Cox–Ross–Rubinstein binomial tree (TR_CRR): node j of
// step i has j up-moves, S = S0 u^j d^(i−j).
func crrLattice(_ *Problem, m bsParams, n int, dt float64) (lattice, error) {
	u, growth := math.Exp(m.Sigma*math.Sqrt(dt)), math.Exp((m.R-m.Div)*dt)
	d := 1 / u
	q := (growth - d) / (u - d)
	if q <= 0 || q >= 1 {
		return lattice{}, fmt.Errorf("premia: TR_CRR risk-neutral probability %v out of (0,1); increase steps", q)
	}
	if err := latticeInRange(MethodTreeCRR, m.S0, float64(n)*m.Sigma*math.Sqrt(dt)); err != nil {
		return lattice{}, err
	}
	return lattice{
		branch: []float64{1 - q, q},
		low:    func(step int) float64 { return m.S0 * math.Pow(d, float64(step)) },
		ratio:  u * u,
		spread: m.S0*u - m.S0*d,
		work:   float64(n) * float64(n) / 2,
	}, nil
}

// maxForwardMiss bounds n·|ln(pu·e^Δx + pm + pd·e^−Δx) − (r − q)·Δt|, the
// trinomial's log-forward error over the whole tree. Ordinary rows sit far
// below it (3e-6 at sigma 0.2, T 1, 256 steps; 0.004 at sigma 2, T 2,
// 1 024 steps); sigma 5, T 2, 1 024 steps misses by 0.15 and prices a call
// 14 % off.
const maxForwardMiss = 0.05

// trinomialLattice is the Kamrad–Ritchken trinomial lattice
// (TR_Trinomial): node j of step i sits at S0·e^((j−i)Δx), where the
// parameter "lambda" (default √1.5) stretches Δx = λσ√Δt.
func trinomialLattice(p *Problem, m bsParams, n int, dt float64) (lattice, error) {
	lambda := p.Params.Get("lambda", math.Sqrt(1.5))
	if lambda < 1 {
		return lattice{}, fmt.Errorf("premia: TR_Trinomial needs lambda >= 1, got %v", lambda)
	}
	dx := lambda * m.Sigma * math.Sqrt(dt)
	mu := m.R - m.Div - 0.5*m.Sigma*m.Sigma
	// Kamrad–Ritchken branch probabilities.
	inv2l2 := 1 / (2 * lambda * lambda)
	tilt := mu * math.Sqrt(dt) / (2 * lambda * m.Sigma)
	pu, pm, pd := inv2l2+tilt, 1-2*inv2l2, inv2l2-tilt
	if pu <= 0 || pd <= 0 || pm < 0 {
		return lattice{}, fmt.Errorf("premia: TR_Trinomial probabilities out of range (pu=%v pm=%v pd=%v); increase steps or lambda", pu, pm, pd)
	}
	if err := latticeInRange(MethodTreeTrinomial, m.S0, float64(n)*dx); err != nil {
		return lattice{}, err
	}
	// The tilt is first order in the drift, so at high volatility the
	// branches stop carrying the forward and the tree silently misprices
	// (a call at sigma 5, T 5 on 256 steps: 1.6 against CF_Call's 90.5).
	edx := math.Exp(dx)
	if miss := float64(n) * math.Abs(math.Log(pu*edx+pm+pd/edx)-(m.R-m.Div)*dt); !(miss <= maxForwardMiss) {
		return lattice{}, fmt.Errorf("premia: TR_Trinomial branch probabilities miss the forward by %.3g in log over %d steps (at most %v); increase steps, or lower sigma or T", miss, n, maxForwardMiss)
	}
	return lattice{
		branch: []float64{pd, pm, pu},
		low:    func(step int) float64 { return m.S0 * math.Exp(-float64(step)*dx) },
		ratio:  edx,
		spread: m.S0*edx - m.S0/edx,
		work:   float64(n) * float64(n),
	}, nil
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
