package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// pdeGrid is the log-space finite-difference grid shared by the PDE
// pricers: x = ln S on [xmin, xmax] with mi+1 nodes, n time steps.
type pdeGrid struct {
	xmin, dx float64
	mi       int // number of space intervals (nodes = mi+1)
	n        int // time steps
	dt       float64
}

func (g pdeGrid) x(i int) float64 { return g.xmin + float64(i)*g.dx }
func (g pdeGrid) s(i int) float64 { return math.Exp(g.x(i)) }

// pdeDefaultNodes and pdeDefaultSteps size the grid when the problem does
// not override them.
const (
	pdeDefaultNodes = 400
	pdeDefaultSteps = 256
	pdeWidthStds    = 5.0
)

// pdeHalfWidth is how far the grid reaches from ln S0: ±5σ√T plus the
// drift over T, and at least 0.5.
func pdeHalfWidth(m bsParams, t float64) float64 {
	return max(pdeWidthStds*m.Sigma*math.Sqrt(t)+math.Abs(m.R-m.Div-0.5*m.Sigma*m.Sigma)*t, 0.5)
}

// newVanillaGrid centres the grid on ln S0 with a pdeHalfWidth reach and
// makes ln S0 an exact node so no interpolation error enters the price.
func newVanillaGrid(m bsParams, t float64, nodes, steps int) pdeGrid {
	width := pdeHalfWidth(m, t)
	mi := nodes
	if mi%2 != 0 {
		mi++
	}
	x0 := math.Log(m.S0)
	dx := 2 * width / float64(mi)
	return pdeGrid{xmin: x0 - width, dx: dx, mi: mi, n: steps, dt: t / float64(steps)}
}

// newBarrierGrid anchors one edge exactly at the barrier ln B, where the
// Dirichlet knock-out condition holds: the lower edge for a down barrier,
// extending upward, and the upper edge for an up barrier, extending
// downward.
func newBarrierGrid(m bsParams, t, b float64, up bool, nodes, steps int) pdeGrid {
	xmin, xmax := math.Log(b), math.Log(m.S0)+pdeHalfWidth(m, t)
	if up {
		xmin, xmax = math.Log(m.S0)-pdeHalfWidth(m, t), math.Log(b)
	}
	mi := nodes
	dx := (xmax - xmin) / float64(mi)
	return pdeGrid{xmin: xmin, dx: dx, mi: mi, n: steps, dt: t / float64(steps)}
}

// topFinite refuses a call's grid whose top node S = exp(xmax) overflows
// a float64, as a volatility of a few thousand percent over years makes
// it: the payoff and the boundary are infinite there and the scheme's
// differences NaN. The cell fails rather than price a NaN.
func (g pdeGrid) topFinite() error {
	if math.IsInf(g.s(g.mi), 1) {
		return fmt.Errorf("premia: FD grid reaches ln S = %.4g, past the largest float64: sigma·√T is too wide to price", g.x(g.mi))
	}
	return nil
}

// pdeCoeffs returns the constant tridiagonal coefficients of the
// Black–Scholes operator in log space:
//
//	A V|_i = ½σ²(V_{i+1}−2V_i+V_{i-1})/dx² + μ(V_{i+1}−V_{i-1})/(2dx) − rV_i
func pdeCoeffs(m bsParams, g pdeGrid) (alpha, beta, gamma float64) {
	sig2 := m.Sigma * m.Sigma
	mu := m.R - m.Div - 0.5*sig2
	alpha = 0.5*sig2/(g.dx*g.dx) - mu/(2*g.dx)
	beta = -sig2/(g.dx*g.dx) - m.R
	gamma = 0.5*sig2/(g.dx*g.dx) + mu/(2*g.dx)
	return
}

// pdeSolver carries the per-run scratch buffers of a Crank–Nicolson
// backward induction over the interior nodes 1..mi-1.
type pdeSolver struct {
	g                   pdeGrid
	alpha, beta, gamma  float64
	v                   []float64   // current layer, nodes 0..mi
	sub, diag, sup, rhs []float64   // interior tridiagonal system
	psi                 []float64   // interior obstacle (American), nil otherwise
	psor                *psorParams // solves the obstacle by projected SOR, nil for Brennan–Schwartz
	// thomas or bs holds the direct solve's factors, which overwrite diag
	// and sup.
	thomas mathutil.Tridiag
	bs     mathutil.TridiagBS
	// boundary returns the Dirichlet values at remaining time tau.
	boundary func(tau float64) (lo, hi float64)
}

// psorParams are FD_PSOR's relaxation factor, tolerance and sweep cap.
type psorParams struct {
	omega, tol float64
	maxIter    int
}

func newPDESolver(m bsParams, g pdeGrid, terminal func(s float64) float64, boundary func(tau float64) (lo, hi float64)) *pdeSolver {
	ps := &pdeSolver{g: g, boundary: boundary}
	ps.alpha, ps.beta, ps.gamma = pdeCoeffs(m, g)
	ps.v = make([]float64, g.mi+1)
	for i := range ps.v {
		ps.v[i] = terminal(g.s(i))
	}
	ni := g.mi - 1
	ps.sub = make([]float64, ni)
	ps.diag = make([]float64, ni)
	ps.sup = make([]float64, ni)
	ps.rhs = make([]float64, ni)
	return ps
}

// run performs the backward induction. theta=1 steps (implicit Euler) are
// used for the first rannacher steps to damp the payoff kink, then
// Crank–Nicolson (theta=½). The step matrix depends on theta alone, so it
// is built, and for a direct solve eliminated, at the first step of each
// theta. Each step ends in one of three solves: the Thomas algorithm,
// Brennan–Schwartz's projection onto the obstacle psi, or projected SOR.
// It returns the run's work: the nodes of every step's direct solve, or
// the interior nodes of every SOR sweep.
func (ps *pdeSolver) run() (float64, error) {
	g := ps.g
	ni := g.mi - 1
	const rannacher = 2
	sweeps := 0
	a, b, c := ps.alpha, ps.beta, ps.gamma
	for step := 0; step < g.n; step++ {
		theta := 0.5
		if step < rannacher {
			theta = 1.0
		}
		if step == 0 || step == rannacher {
			if err := ps.setMatrix(theta); err != nil {
				return 0, fmt.Errorf("premia: PDE step %d: %w", step, err)
			}
		}
		tauNew := float64(step+1) * g.dt // remaining time after this step
		loNew, hiNew := ps.boundary(tauNew)
		for i := 0; i < ni; i++ {
			vi := ps.v[i+1]
			rhs := vi
			if theta < 1 {
				om := (1 - theta) * g.dt
				lower := ps.v[i]
				upper := ps.v[i+2]
				rhs += om * (a*lower + b*vi + c*upper)
			}
			ps.rhs[i] = rhs
		}
		// Fold the new-time Dirichlet boundaries into the first/last
		// equations; the old-time boundary values enter through the
		// explicit stencil via v[0] and v[mi], which still hold them.
		ps.rhs[0] += theta * g.dt * a * loNew
		ps.rhs[ni-1] += theta * g.dt * c * hiNew
		interior := ps.v[1:g.mi]
		switch {
		case ps.psor != nil:
			iters, err := mathutil.PSOR(ps.sub, ps.diag, ps.sup, ps.rhs, ps.psi, interior, ps.psor.omega, ps.psor.tol, ps.psor.maxIter)
			sweeps += iters
			if err != nil {
				return 0, fmt.Errorf("premia: PDE step %d: %w", step, err)
			}
		case ps.psi != nil:
			ps.bs.Solve(ps.rhs, ps.psi, interior)
		default:
			ps.thomas.Solve(ps.rhs, interior)
		}
		ps.v[0], ps.v[g.mi] = loNew, hiNew
	}
	if ps.psor != nil {
		return float64(sweeps) * float64(ni), nil
	}
	return float64(g.n) * float64(g.mi), nil
}

// setMatrix fills the interior system's matrix for theta, and eliminates
// it in place for the direct solve the run ends its steps in.
func (ps *pdeSolver) setMatrix(theta float64) error {
	dt := ps.g.dt
	for i := range ps.diag {
		ps.sub[i] = -theta * dt * ps.alpha
		ps.diag[i] = 1 - theta*dt*ps.beta
		ps.sup[i] = -theta * dt * ps.gamma
	}
	switch {
	case ps.psor != nil:
		return nil
	case ps.psi != nil:
		return ps.bs.Factor(ps.sub, ps.diag, ps.sup)
	}
	return ps.thomas.Factor(ps.sub, ps.diag, ps.sup)
}

// price runs the induction and reads the price and delta off at s0.
func (ps *pdeSolver) price(s0 float64) (Result, error) {
	work, err := ps.run()
	if err != nil {
		return Result{}, err
	}
	price, delta := ps.readout(s0)
	return Result{Price: price, Delta: delta, HasDelta: true, Work: work}, nil
}

// readout fits a quadratic through the three grid nodes bracketing S0 and
// returns the interpolated price and delta dV/dS.
func (ps *pdeSolver) readout(s0 float64) (price, delta float64) {
	g := ps.g
	x0 := math.Log(s0)
	i := int((x0 - g.xmin) / g.dx)
	if i < 1 {
		i = 1
	}
	if i > g.mi-1 {
		i = g.mi - 1
	}
	xm, xc, xp := g.x(i-1), g.x(i), g.x(i+1)
	vm, vc, vp := ps.v[i-1], ps.v[i], ps.v[i+1]
	// Lagrange quadratic in x and its derivative.
	l0 := (x0 - xc) * (x0 - xp) / ((xm - xc) * (xm - xp))
	l1 := (x0 - xm) * (x0 - xp) / ((xc - xm) * (xc - xp))
	l2 := (x0 - xm) * (x0 - xc) / ((xp - xm) * (xp - xc))
	price = vm*l0 + vc*l1 + vp*l2
	d0 := ((x0 - xc) + (x0 - xp)) / ((xm - xc) * (xm - xp))
	d1 := ((x0 - xm) + (x0 - xp)) / ((xc - xm) * (xc - xp))
	d2 := ((x0 - xm) + (x0 - xc)) / ((xp - xm) * (xp - xc))
	dvdx := vm*d0 + vc*d1 + vp*d2
	delta = dvdx / s0 // dV/dS = dV/dx · dx/dS
	return price, delta
}

// pdeSize reads the grid's "nodes" and "steps".
func pdeSize(p *Problem) (nodes, steps int, err error) {
	if nodes, err = p.Params.size("nodes", pdeDefaultNodes); err != nil {
		return 0, 0, err
	}
	if steps, err = p.Params.size("steps", pdeDefaultSteps); err != nil {
		return 0, 0, err
	}
	if nodes < 8 || steps < 1 {
		return 0, 0, fmt.Errorf("premia: FD grid too small (%d nodes, %d steps)", nodes, steps)
	}
	return nodes, steps, nil
}

// fdCrankNicolson implements FD_CrankNicolson for European calls, puts and
// down-and-out and up-and-out barrier calls. Method parameters: "nodes",
// "steps".
func fdCrankNicolson(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	nodes, steps, err := pdeSize(p)
	if err != nil {
		return Result{}, err
	}
	switch p.Option {
	case OptCallEuro, OptPutEuro:
		o, err := vanillaFrom(p)
		if err != nil {
			return Result{}, err
		}
		g := newVanillaGrid(m, o.T, nodes, steps)
		isCall := p.Option == OptCallEuro
		if err := g.topFinite(); isCall && err != nil {
			return Result{}, err
		}
		terminal := func(s float64) float64 { return vanillaPayoff(isCall, s, o.K) }
		smin, smax := g.s(0), g.s(g.mi)
		boundary := func(tau float64) (lo, hi float64) {
			if isCall {
				return 0, smax*math.Exp(-m.Div*tau) - o.K*math.Exp(-m.R*tau)
			}
			return o.K*math.Exp(-m.R*tau) - smin*math.Exp(-m.Div*tau), 0
		}
		return newPDESolver(m, g, terminal, boundary).price(m.S0)

	case OptCallDownOut:
		o, err := barrierFrom(p, "L")
		if err != nil {
			return Result{}, err
		}
		if m.S0 <= o.B {
			return Result{Price: o.Rebate * math.Exp(-m.R*o.T), HasDelta: true, Work: 1}, nil
		}
		g := newBarrierGrid(m, o.T, o.B, false, nodes, steps)
		if err := g.topFinite(); err != nil {
			return Result{}, err
		}
		terminal := func(s float64) float64 { return payoffCall(s, o.K) }
		smax := g.s(g.mi)
		boundary := func(tau float64) (lo, hi float64) {
			return o.Rebate * math.Exp(-m.R*tau), smax*math.Exp(-m.Div*tau) - o.K*math.Exp(-m.R*tau)
		}
		return newPDESolver(m, g, terminal, boundary).price(m.S0)

	case OptCallUpOut:
		o, err := barrierFrom(p, "U")
		if err != nil {
			return Result{}, err
		}
		u := o.B
		if m.S0 >= u {
			return Result{Price: o.Rebate * math.Exp(-m.R*o.T), HasDelta: true, Work: 1}, nil
		}
		g := newBarrierGrid(m, o.T, u, true, nodes, steps)
		terminal := func(s float64) float64 {
			// Terminal payoff capped by the knock-out region above U.
			if s >= u {
				return o.Rebate
			}
			return payoffCall(s, o.K)
		}
		boundary := func(tau float64) (lo, hi float64) {
			// Deep OTM at the bottom; knocked out (rebate at expiry) at U.
			return 0, o.Rebate * math.Exp(-m.R*tau)
		}
		return newPDESolver(m, g, terminal, boundary).price(m.S0)
	}
	return Result{}, fmt.Errorf("premia: FD_CrankNicolson does not price %q", p.Option)
}

// fdAmerican prices the American put by Crank–Nicolson with the exercise
// obstacle, projected by Brennan–Schwartz when psor is nil and by
// projected SOR otherwise.
func fdAmerican(p *Problem, psor *psorParams) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	nodes, steps, err := pdeSize(p)
	if err != nil {
		return Result{}, err
	}
	g := newVanillaGrid(m, o.T, nodes, steps)
	terminal := func(s float64) float64 { return payoffPut(s, o.K) }
	smin := g.s(0)
	boundary := func(tau float64) (lo, hi float64) {
		// American put: immediate exercise value at the low edge.
		return o.K - smin, 0
	}
	ps := newPDESolver(m, g, terminal, boundary)
	ps.psi = make([]float64, g.mi-1)
	for i := range ps.psi {
		ps.psi[i] = payoffPut(g.s(i+1), o.K)
	}
	ps.psor = psor
	return ps.price(m.S0)
}

// fdBrennanSchwartz implements FD_BrennanSchwartz: Crank–Nicolson with the
// Brennan–Schwartz direct solver projecting onto the exercise obstacle.
func fdBrennanSchwartz(p *Problem) (Result, error) { return fdAmerican(p, nil) }

// fdPSOR implements FD_PSOR: the same discretisation solved as a linear
// complementarity problem by projected SOR at every step. Method
// parameters: "omega" (default 1.4), "tol" (1e-9), "maxiter" (2000).
func fdPSOR(p *Problem) (Result, error) {
	return fdAmerican(p, &psorParams{
		omega:   p.Params.Get("omega", 1.4),
		tol:     p.Params.Get("tol", 1e-9),
		maxIter: p.Params.Int("maxiter", 2000),
	})
}
