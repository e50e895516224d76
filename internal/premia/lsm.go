package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// Longstaff–Schwartz defaults: exercise dates and regression degree.
const (
	lsmDefaultExDates = 50
	lsmDefaultDegree  = 3
	lsmDefaultPaths   = 20000
)

// lsmMaxStored is how many float64s one Longstaff–Schwartz run may keep
// (1 GiB): the method stores every path at every exercise date plus a
// regression row per path, so its memory is a product of parameters each
// within its own maximum.
const lsmMaxStored = 1 << 27

// lsmFits fails a run that would keep more than lsmMaxStored values.
func lsmFits(paths, exDates, stored int) error {
	if stored > lsmMaxStored {
		return fmt.Errorf("premia: parameters \"paths\" = %d and \"exdates\" = %d make LSM store %d values, which exceeds %d",
			paths, exDates, stored, lsmMaxStored)
	}
	return nil
}

// lsmStored is how many float64s an LSM run pricing the given number of
// cells together at the given kernel width keeps: per cell a basket
// matrix and each shard's log-spots and spots for one date, one induction
// workspace (the regression's design row, cash, ys and idx per path) for
// every induction that runs at once — one a goroutine, so min(cells,
// threads) — and each shard's normals for one path. For one cell it is
// what lsmFits admits plus the shards' log-spots and spots.
func lsmStored(cells, threads, paths, exDates, dim, degree int) int {
	return cells*(paths*exDates+2*kernelShards*dim) + min(cells, threads)*paths*(degree+4) + kernelShards*exDates*dim
}

// lsmCellsPerRun is how many cells of a group one LSM run at the given
// kernel width prices: as many as lsmStored keeps within lsmMaxStored,
// and at least one — a cell alone has passed lsmFits. Up to threads
// cells each bring a workspace; the cells past them bring their basket
// only.
func lsmCellsPerRun(threads, paths, exDates, dim, degree int) int {
	fixed := lsmStored(0, threads, paths, exDates, dim, degree)
	basket := lsmStored(1, 0, paths, exDates, dim, degree) - fixed
	both := lsmStored(1, 1, paths, exDates, dim, degree) - fixed
	if n := (lsmMaxStored - fixed) / both; n < threads {
		return max(1, n)
	}
	return threads + (lsmMaxStored-fixed-threads*both)/basket
}

// mcAmerLSM implements MC_AM_LongstaffSchwartz for American puts under
// one-dimensional Black–Scholes and for American basket puts under the
// n-dimensional model. The continuation value is regressed on monomials of
// the (basket) spot over in-the-money paths, per the original algorithm.
// Parameters: "paths", "exdates", "degree". It is lsmPrices on one cell.
func mcAmerLSM(p *Problem) (Result, error) { return priceAlone(p, lsmOf, lsmPrices) }

// lsmCell is one MC_AM_LongstaffSchwartz pricing, parsed and validated.
type lsmCell struct {
	k                      mcKernel
	paths, exDates, degree int
	dim                    int
	rho, s0, strike        float64
	chol                   mathutil.EquiFactor
	drift, vol, logS0      float64
	discStep               float64
}

func lsmOf(p *Problem) (lsmCell, error) {
	var c lsmCell
	o, err := vanillaFrom(p)
	if err != nil {
		return c, err
	}
	if c.paths, err = p.Params.size("paths", lsmDefaultPaths); err != nil {
		return c, err
	}
	if c.exDates, err = p.Params.size("exdates", lsmDefaultExDates); err != nil {
		return c, err
	}
	if c.degree, err = p.Params.size("degree", lsmDefaultDegree); err != nil {
		return c, err
	}
	if c.paths < 10 || c.exDates < 2 || c.degree < 1 {
		return c, fmt.Errorf("premia: LSM needs paths >= 10, exdates >= 2, degree >= 1")
	}

	var r, div, sigma float64
	switch p.Model {
	case ModelBS1D:
		m, err := bsFrom(p)
		if err != nil {
			return c, err
		}
		c.dim, c.s0, r, div, sigma, c.rho = 1, m.S0, m.R, m.Div, m.Sigma, 0
	case ModelBSND:
		m, err := mbsFrom(p)
		if err != nil {
			return c, err
		}
		c.dim, c.s0, r, div, sigma, c.rho = m.Dim, m.S0, m.R, m.Div, m.Sigma, m.Rho
	default:
		return c, fmt.Errorf("premia: LSM does not support model %q", p.Model)
	}

	// The basket, the regression's design row, cash, ys and idx per path,
	// and each shard's normals for one path.
	if err := lsmFits(c.paths, c.exDates, c.paths*(c.exDates+c.degree+4)+kernelShards*c.exDates*c.dim); err != nil {
		return c, err
	}
	if c.chol, err = mathutil.NewEquiFactor(c.dim, c.rho); err != nil {
		return c, fmt.Errorf("premia: LSM correlation: %w", err)
	}
	c.strike = o.K
	dt := o.T / float64(c.exDates)
	c.drift = (r - div - 0.5*sigma*sigma) * dt
	c.vol = sigma * math.Sqrt(dt)
	c.logS0 = math.Log(c.s0)
	c.discStep = math.Exp(-r * dt)
	c.k, err = kernelOf(p)
	return c, err
}

func (c lsmCell) draws() drawKey {
	return drawKey{seed: c.k.seed, paths: c.paths, dim: c.dim, dates: c.exDates, rho: math.Float64bits(c.rho)}
}

// lsmPrices prices LSM cells that share their draws, lsmCellsPerRun of
// them a kernel run. Only the basket average is needed by the payoff and
// the regression, so each cell keeps paths×dates floats even in dimension
// 40. Path generation is the method's hot phase and runs sharded on the
// multicore pricing kernel: each path's normals are drawn and correlated
// once a date, then every cell evolves its own log-spots and writes its
// disjoint block of its basket matrix. A backward induction regresses
// across paths, so it runs serially, but the run's cells are induced side
// by side at the kernel's width (dispatch), each goroutine on a workspace
// of its own. A cell's result is the same whichever workspace it gets.
func lsmPrices(cells []lsmCell) ([]Result, []error) {
	c0 := cells[0]
	paths, exDates, dim := c0.paths, c0.exDates, c0.dim
	degree := 0
	for _, c := range cells {
		degree = max(degree, c.degree)
	}
	threads := c0.k.threads
	per := lsmCellsPerRun(threads, paths, exDates, dim, degree)
	results, errs := make([]Result, len(cells)), make([]error, len(cells))
	baskets := make([]float64, min(per, len(cells))*paths*exDates)
	ws := make([]*lsmWorkspace, min(threads, per, len(cells)))
	for w := range ws {
		ws[w] = newLSMWorkspace(paths, degree+1)
	}
	for lo := 0; lo < len(cells); lo += per {
		run := cells[lo:min(lo+per, len(cells))]
		c0.k.indexed(paths, func(_, start, count int, rng *mathutil.RNG, sc *kernelScratch) {
			logS := sc.floats(len(run) * dim)
			cz := sc.floats(dim)
			spots := sc.floats(len(run) * dim)
			// All of a path's normals (exDates·dim) are drawn in one
			// batched pass; the date loop then consumes them row by row,
			// date-major and asset-minor, and takes the exp of every
			// cell's log-spots in one pass.
			z := sc.floats(exDates * dim)
			for i := start; i < start+count; i++ {
				for j := range run {
					for a := j * dim; a < (j+1)*dim; a++ {
						logS[a] = run[j].logS0
					}
				}
				rng.NormVec(z)
				for k := 0; k < exDates; k++ {
					c0.chol.Mul(z[k*dim:(k+1)*dim], cz)
					for j := range run {
						drift, vol := run[j].drift, run[j].vol
						ls := logS[j*dim : (j+1)*dim]
						for a := range ls {
							ls[a] += drift + vol*cz[a]
						}
					}
					mathutil.ExpVec(spots, logS)
					for j := range run {
						sum := 0.0
						for _, s := range spots[j*dim : (j+1)*dim] {
							sum += s
						}
						baskets[(j*paths+i)*exDates+k] = sum / float64(dim)
					}
				}
			}
		})
		dispatch(threads, len(run), func(w, j int) {
			res, err := lsmInduct(run[j], baskets[j*paths*exDates:(j+1)*paths*exDates], nil, ws[w])
			if err != nil {
				errs[lo+j] = err
				return
			}
			res.Work += float64(paths) * float64(exDates) * float64(dim)
			results[lo+j] = res
		})
	}
	return results, anyFailed(errs)
}

// lsmWorkspace is the backward induction's scratch, shared by the cells
// one goroutine of an lsmPrices call induces: sized for paths and nb
// basis functions, every slot a cell reads is written by that cell first.
type lsmWorkspace struct {
	cash, design, ys, beta []float64
	idx                    []int
}

func newLSMWorkspace(paths, nb int) *lsmWorkspace {
	return &lsmWorkspace{
		cash:   make([]float64, paths),
		design: make([]float64, paths*nb),
		ys:     make([]float64, paths),
		beta:   make([]float64, nb),
		idx:    make([]int, paths),
	}
}

// lsmInduct runs the backward induction of the cell's put with regression
// over in-the-money paths on its spot matrix (spots[i*exDates+k] is path
// i at date k+1) and, when vars is not nil, the variance matrix of the
// same shape. The basis is PolyBasis(s/K) of the cell's degree, then v
// and s·v when variances are given. Its Work counts the regressions only.
func lsmInduct(c lsmCell, spots, vars []float64, w *lsmWorkspace) (Result, error) {
	paths, exDates := c.paths, c.exDates
	cash := w.cash // value along each path, discounted to the current date
	for i := 0; i < paths; i++ {
		cash[i] = payoffPut(spots[i*exDates+exDates-1], c.strike)
	}
	np := c.degree + 1 // polynomial terms
	nb := np
	if vars != nil {
		nb += 2
	}
	design, ys, idx := w.design, w.ys, w.idx
	beta := w.beta[:nb]
	work := 0.0
	for k := exDates - 2; k >= 0; k-- {
		for i := range cash {
			cash[i] *= c.discStep
		}
		// Gather in-the-money paths and their basis rows.
		n := 0
		for i := 0; i < paths; i++ {
			at := i*exDates + k
			if payoffPut(spots[at], c.strike) > 0 {
				row := design[n*nb : (n+1)*nb]
				s := spots[at] / c.strike // normalise for conditioning
				mathutil.PolyBasis(s, row[:np])
				if vars != nil {
					row[np] = vars[at]
					row[np+1] = s * vars[at]
				}
				ys[n] = cash[i]
				idx[n] = i
				n++
			}
		}
		if n <= nb {
			continue // not enough points to regress: never exercise here
		}
		if err := mathutil.LeastSquares(design[:n*nb], n, nb, ys[:n], beta); err != nil {
			return Result{}, fmt.Errorf("premia: LSM regression at date %d: %w", k, err)
		}
		for j := 0; j < n; j++ {
			i := idx[j]
			exercise := payoffPut(spots[i*exDates+k], c.strike)
			cont := 0.0
			for q, x := range design[j*nb : (j+1)*nb] {
				cont += beta[q] * x // the fit leaves the design rows as gathered
			}
			if exercise > cont {
				cash[i] = exercise
			}
		}
		work += float64(n) * float64(nb) * float64(nb)
	}
	var wf mathutil.Welford
	for i := 0; i < paths; i++ {
		wf.Add(c.discStep * cash[i])
	}
	price := wf.Mean()
	// The American value dominates immediate exercise at t=0.
	if ex := payoffPut(c.s0, c.strike); ex > price {
		price = ex
	}
	return Result{Price: price, PriceCI: wf.HalfWidth95(), Work: work}, nil
}

// mcAmerAlfonsi implements MC_AM_Alfonsi_LongstaffSchwartz, the method
// named in the paper's Nsp example: an American put under Heston, with the
// variance simulated by Alfonsi's drift-implicit square-root scheme (exact
// positivity when 4κθ ≥ σᵥ²; full-truncation Euler fallback otherwise)
// and exercise decided by a Longstaff–Schwartz regression on (S, V).
// Parameters: "paths", "exdates". The regression basis is fixed at six
// terms, so the method reads no "degree".
func mcAmerAlfonsi(p *Problem) (Result, error) {
	m, err := hestonFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths, err := p.Params.size("paths", lsmDefaultPaths)
	if err != nil {
		return Result{}, err
	}
	exDates, err := p.Params.size("exdates", lsmDefaultExDates)
	if err != nil {
		return Result{}, err
	}
	if paths < 10 || exDates < 2 {
		return Result{}, fmt.Errorf("premia: Alfonsi LSM needs paths >= 10 and exdates >= 2")
	}
	// Spot and variance at every date, the six-term design row, cash, ys
	// and idx per path.
	if err := lsmFits(paths, exDates, paths*(2*exDates+9)); err != nil {
		return Result{}, err
	}

	dt := o.T / float64(exDates)
	sqdt := math.Sqrt(dt)
	useAlfonsi := 4*m.Kappa*m.Theta >= m.SigmaV*m.SigmaV
	rho2 := math.Sqrt(1 - m.Rho*m.Rho)

	// Path generation sharded on the multicore pricing kernel; the
	// regression phase below stays serial.
	spots := make([]float64, paths*exDates)
	vars := make([]float64, paths*exDates)
	k, err := kernelOf(p)
	if err != nil {
		return Result{}, err
	}
	k.indexed(paths, func(_, start, count int, rng *mathutil.RNG, sc *kernelScratch) {
		// Each path's 2·exDates normals are drawn in one batched pass and
		// consumed as interleaved (z1, z2) pairs, one pair a date.
		zz := sc.floats(2 * exDates)
		for i := start; i < start+count; i++ {
			x := math.Log(m.S0)
			v := m.V0
			rng.NormVec(zz)
			for k := 0; k < exDates; k++ {
				z1 := zz[2*k]
				z2 := zz[2*k+1]
				vNew := hestonVarStep(m, v, dt, sqdt*z1, useAlfonsi)
				x += hestonLogSpotIncrement(m, v, vNew, dt, rho2, z2)
				v = vNew
				spots[i*exDates+k] = mathutil.Exp(x)
				vars[i*exDates+k] = v
			}
		}
	})

	// LSM on the 2-d state (S, V): basis {1, s, s², s³, v, s·v} with
	// s = S/K normalised.
	c := lsmCell{paths: paths, exDates: exDates, degree: 3, s0: m.S0, strike: o.K,
		discStep: math.Exp(-m.R * dt)}
	res, err := lsmInduct(c, spots, vars, newLSMWorkspace(paths, c.degree+3))
	if err != nil {
		return Result{}, err
	}
	res.Work += float64(paths) * float64(exDates) * 4
	return res, nil
}

// alfonsiStep advances the CIR variance by one step of Alfonsi's (2005)
// drift-implicit scheme on √V, which preserves positivity when
// 4κθ ≥ σᵥ². dw is the Brownian increment over the step.
func alfonsiStep(v, kappa, theta, sigma, dt, dw float64) float64 {
	// X = √V solves dX = ((κθ/2 − σ²/8)/X − κX/2) dt + (σ/2) dW; the
	// implicit discretisation yields a quadratic in X_{t+dt}.
	den := 1 + kappa*dt/2
	x := math.Sqrt(math.Max(v, 0))
	b := x + sigma*dw/2
	c := (kappa*theta/2 - sigma*sigma/8) * dt
	disc := b*b + 4*den*c
	if disc < 0 {
		disc = 0
	}
	xn := (b + math.Sqrt(disc)) / (2 * den)
	return xn * xn
}
