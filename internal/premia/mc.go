package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// Default Monte Carlo sizes. The paper uses 10⁶ samples for the realistic
// portfolio; unit tests override "paths" downward for speed.
const (
	mcDefaultPaths = 100000
	mcDefaultSteps = 64
	mcSeedKey      = "seed"
	mcSeedHiKey    = "seedhi"
	mcDefaultSeed  = 20090101
)

// mcSeed assembles the Monte Carlo seed. Params values are float64, which
// represents only 53-bit integers exactly, so full-width 64-bit seeds
// travel as two 32-bit halves — "seed" (low) and "seedhi" (high), written
// together by Problem.SetSeed. Problems carrying just "seed" keep their
// historical meaning.
func mcSeed(p *Problem) uint64 {
	lo := p.Params.Uint64(mcSeedKey, mcDefaultSeed)
	hi := p.Params.Uint64(mcSeedHiKey, 0)
	return hi<<32 | lo
}

// mcEuro implements MC_Euro: Monte Carlo under one-dimensional
// Black–Scholes with exact lognormal terminal sampling for vanilla
// payoffs, and a Brownian-bridge-corrected Euler path for the
// down-and-out and up-and-out barrier calls. Paths run on the multicore
// pricing kernel (see parallel.go). Parameters: "paths", "threads",
// "mcsteps" (barrier only).
func mcEuro(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	if paths < 2 {
		return Result{}, fmt.Errorf("premia: MC_Euro needs paths >= 2, got %d", paths)
	}

	switch p.Option {
	case OptCallEuro, OptPutEuro:
		o, err := vanillaFrom(p)
		if err != nil {
			return Result{}, err
		}
		isCall := p.Option == OptCallEuro
		antithetic := p.Params.Get("antithetic", 0) != 0
		drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * o.T
		vol := m.Sigma * math.Sqrt(o.T)
		df := math.Exp(-m.R * o.T)
		// Struct-of-arrays inner loops: normals are drawn, terminal spots
		// evolved, and payoffs accumulated in three batched passes over
		// contiguous scratch buffers, path i of a block taking normal i.
		var accs []mathutil.Welford
		if antithetic {
			// Pair each draw with its mirror: the averaged pair is one
			// sample with strictly smaller variance for monotone payoffs.
			// The kernel shards over pairs, so each pair stays on one
			// stream.
			accs, err = runPathKernel(p, paths/2, 2, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
				g := sc.floats(soaBlock)
				st1 := sc.floats(soaBlock)
				st2 := sc.floats(soaBlock)
				for done := 0; done < n; done += soaBlock {
					bn := min(soaBlock, n-done)
					rng.NormVec(g[:bn])
					for i := 0; i < bn; i++ {
						st1[i] = m.S0 * mathutil.Exp(drift+vol*g[i])
						st2[i] = m.S0 * mathutil.Exp(drift+vol*-g[i])
					}
					for i := 0; i < bn; i++ {
						pay := vanillaPayoff(isCall, st1[i], o.K) + vanillaPayoff(isCall, st2[i], o.K)
						dpay := pathwiseDelta(isCall, st1[i], o.K, m.S0) + pathwiseDelta(isCall, st2[i], o.K, m.S0)
						accs[0].Add(df * pay / 2)
						accs[1].Add(df * dpay / 2)
					}
				}
			})
		} else {
			accs, err = runPathKernel(p, paths, 2, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
				g := sc.floats(soaBlock)
				st := sc.floats(soaBlock)
				for done := 0; done < n; done += soaBlock {
					bn := min(soaBlock, n-done)
					rng.NormVec(g[:bn])
					for i := 0; i < bn; i++ {
						st[i] = m.S0 * mathutil.Exp(drift+vol*g[i])
					}
					for _, s := range st[:bn] {
						accs[0].Add(df * vanillaPayoff(isCall, s, o.K))
						accs[1].Add(df * pathwiseDelta(isCall, s, o.K, m.S0))
					}
				}
			})
		}
		if err != nil {
			return Result{}, err
		}
		return Result{
			Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
			Delta: accs[1].Mean(), HasDelta: true,
			Work: float64(paths),
		}, nil

	case OptCallDownOut, OptCallUpOut:
		up := p.Option == OptCallUpOut
		key := "L"
		if up {
			key = "U"
		}
		o, err := barrierFrom(p, key)
		if err != nil {
			return Result{}, err
		}
		if up && m.S0 >= o.B || !up && m.S0 <= o.B {
			return Result{Price: o.Rebate * math.Exp(-m.R*o.T), HasDelta: false, Work: 1}, nil
		}
		steps, err := p.Params.size("mcsteps", mcDefaultSteps)
		if err != nil {
			return Result{}, err
		}
		if steps < 1 {
			return Result{}, fmt.Errorf("premia: MC_Euro barrier needs mcsteps >= 1")
		}
		dt := o.T / float64(steps)
		drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * dt
		vol := m.Sigma * math.Sqrt(dt)
		df := math.Exp(-m.R * o.T)
		lnB := math.Log(o.B)
		sig2dt := m.Sigma * m.Sigma * dt
		// The barrier path stays path-at-a-time: early knock-out ends the
		// path's draws, so the per-path draw count is data-dependent and
		// pre-filling a normals block would shift the stream.
		accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
			for i := 0; i < n; i++ {
				x := math.Log(m.S0)
				alive := true
				// Survival probability of the Brownian bridge between the
				// discrete monitoring dates removes the discretisation bias.
				survival := 1.0
				for k := 0; k < steps && alive; k++ {
					xNext := x + drift + vol*rng.Norm()
					if up && xNext >= lnB || !up && xNext <= lnB {
						alive = false
						break
					}
					// P(bridge from x to xNext crosses lnB): the same
					// from either side of the barrier.
					pHit := math.Exp(-2 * (x - lnB) * (xNext - lnB) / sig2dt)
					survival *= 1 - pHit
					x = xNext
				}
				pay := o.Rebate
				if alive {
					st := math.Exp(x)
					pay = survival*payoffCall(st, o.K) + (1-survival)*o.Rebate
				}
				accs[0].Add(df * pay)
			}
		})
		if err != nil {
			return Result{}, err
		}
		return Result{
			Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
			Work: float64(paths) * float64(steps),
		}, nil
	}
	return Result{}, fmt.Errorf("premia: MC_Euro does not price %q", p.Option)
}

// mcBasket implements MC_Basket: a European put on the equally-weighted
// average of dim correlated Black–Scholes assets, sampled exactly at
// maturity through the Cholesky factor of the correlation matrix. This is
// the paper's "40-dimensional basket put, 10⁶ samples" workload.
//
// Paths run on the multicore pricing kernel: the optional "threads"
// parameter sizes the goroutine pool, while the shard decomposition (and
// therefore the estimate) depends only on (seed, paths) — see
// parallel.go. It is basketPrices on one cell.
func mcBasket(p *Problem) (Result, error) { return priceAlone(p, basketOf, basketPrices) }

// basketCell is one MC_Basket pricing, parsed and validated.
type basketCell struct {
	k              mcKernel
	paths          int
	m              mbsParams
	chol           mathutil.EquiFactor
	strike         float64
	drift, vol, df float64
	isCall         bool
}

func basketOf(p *Problem) (basketCell, error) {
	var c basketCell
	var err error
	if c.m, err = mbsFrom(p); err != nil {
		return c, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return c, err
	}
	c.paths = p.Params.Int("paths", mcDefaultPaths)
	if c.paths < 2 {
		return c, fmt.Errorf("premia: MC_Basket needs paths >= 2, got %d", c.paths)
	}
	if c.chol, err = mathutil.NewEquiFactor(c.m.Dim, c.m.Rho); err != nil {
		return c, fmt.Errorf("premia: basket correlation: %w", err)
	}
	m := c.m
	c.strike = o.K
	c.drift = (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * o.T
	c.vol = m.Sigma * math.Sqrt(o.T)
	c.df = math.Exp(-m.R * o.T)
	c.isCall = p.Option == OptCallBasketEuro
	c.k, err = kernelOf(p)
	return c, err
}

func (c basketCell) draws() drawKey {
	return drawKey{seed: c.k.seed, paths: c.paths, dim: c.m.Dim, rho: math.Float64bits(c.m.Rho)}
}

// basketPrices prices basket cells that share their draws in one kernel
// run: each path's normals are drawn and correlated once, then every
// cell evolves the path and pays off into its own accumulator.
func basketPrices(cells []basketCell) ([]Result, []error) {
	c0 := cells[0]
	d := c0.m.Dim
	// Struct-of-arrays: draw a whole block of path normals in one batched
	// pass, then correlate / evolve / accumulate path by path, path i of
	// a block taking normals i·d … i·d+d−1.
	block := soaBlock / d
	if block < 1 {
		block = 1
	}
	accs := c0.k.paths(c0.paths, len(cells), func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		g := sc.floats(block * d)
		cz := sc.floats(d)
		st := sc.floats(d)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			rng.NormVec(g[:bn*d])
			for i := 0; i < bn; i++ {
				c0.chol.Mul(g[i*d:(i+1)*d], cz)
				for j := range cells {
					c := &cells[j]
					for a := 0; a < d; a++ {
						st[a] = c.drift + c.vol*cz[a]
					}
					mathutil.ExpVec(st, st)
					for a := 0; a < d; a++ {
						st[a] = c.m.S0 * st[a]
					}
					accs[j].Add(c.df * vanillaPayoff(c.isCall, basketValue(st), c.strike))
				}
			}
		}
	})
	results := make([]Result, len(cells))
	for j := range cells {
		results[j] = Result{
			Price: accs[j].Mean(), PriceCI: accs[j].HalfWidth95(),
			Work: float64(c0.paths) * float64(d),
		}
	}
	return results, nil
}

// mcLocalVol implements MC_LocalVol: log-Euler simulation of
// x = ln(S/S0) under the parametric local-volatility surface, one exp a
// path, sharded over the multicore pricing kernel. Parameters: "paths",
// "mcsteps", "threads". It is localVolPrices on one cell.
func mcLocalVol(p *Problem) (Result, error) { return priceAlone(p, localVolOf, localVolPrices) }

// localVolCell is one MC_LocalVol pricing, parsed and validated.
type localVolCell struct {
	k            mcKernel
	paths, steps int
	m            lvParams
	strike       float64
	dt, sqdt, df float64
	isCall       bool
}

func localVolOf(p *Problem) (localVolCell, error) {
	var c localVolCell
	var err error
	if c.m, err = lvFrom(p); err != nil {
		return c, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return c, err
	}
	c.paths = p.Params.Int("paths", mcDefaultPaths)
	if c.steps, err = p.Params.size("mcsteps", mcDefaultSteps); err != nil {
		return c, err
	}
	if c.paths < 2 || c.steps < 1 {
		return c, fmt.Errorf("premia: MC_LocalVol needs paths >= 2 and mcsteps >= 1")
	}
	c.isCall = p.Option == OptCallEuro
	c.strike = o.K
	c.dt = o.T / float64(c.steps)
	c.sqdt = math.Sqrt(c.dt)
	c.df = math.Exp(-c.m.R * o.T)
	c.k, err = kernelOf(p)
	return c, err
}

func (c localVolCell) draws() drawKey {
	return drawKey{seed: c.k.seed, paths: c.paths, dates: c.steps}
}

// localVolPrices prices local-vol cells that share their draws in one
// kernel run: each block of paths' normals is drawn once, then every cell
// evolves the block's paths into its own accumulator.
func localVolPrices(cells []localVolCell) ([]Result, []error) {
	c0 := cells[0]
	steps := c0.steps
	// Struct-of-arrays: each block's normals are drawn path by path, in
	// the stream's order, and laid out time-major, every path's step-k
	// normal side by side. A cell advances all the block's paths one time
	// step at a time, so independent paths' updates overlap instead of
	// each waiting on its own last step, while each path's x = ln(S/S0)
	// sees the same operations on the same normals in the same order as it
	// would alone.
	block := soaBlock / steps
	if block < 1 {
		block = 1
	}
	accs := c0.k.paths(c0.paths, len(cells), func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		gt := sc.floats(block * steps)
		row := sc.floats(steps)
		xs := sc.floats(block)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			for i := 0; i < bn; i++ {
				rng.NormVec(row)
				for k, z := range row {
					gt[k*bn+i] = z
				}
			}
			x := xs[:bn]
			for j := range cells {
				c := &cells[j]
				m := c.m
				clear(x)
				t := 0.0
				for k := 0; k < steps; k++ {
					z := gt[k*bn : (k+1)*bn]
					z = z[:len(x)] // lets the compiler drop z[i]'s bounds check
					for i := range x {
						sig := m.Vol(t, x[i])
						x[i] += (m.R-m.Div-0.5*sig*sig)*c.dt + sig*c.sqdt*z[i]
					}
					t += c.dt
				}
				mathutil.ExpVec(x, x)
				for i := range x {
					accs[j].Add(c.df * vanillaPayoff(c.isCall, m.S0*x[i], c.strike))
				}
			}
		}
	})
	results := make([]Result, len(cells))
	for j := range cells {
		results[j] = Result{
			Price: accs[j].Mean(), PriceCI: accs[j].HalfWidth95(),
			Work: float64(c0.paths) * float64(steps),
		}
	}
	return results, nil
}
