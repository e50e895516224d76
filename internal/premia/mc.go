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
// down-and-out barrier call. Paths run on the multicore pricing kernel
// (see parallel.go). Parameters: "paths", "threads",
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
		payoffPass := func(st []float64, accs []mathutil.Welford, scale float64) {
			if isCall {
				for _, s := range st {
					var dpay float64
					if s > o.K {
						dpay = s / m.S0 // pathwise delta of a call
					}
					accs[0].Add(scale * payoffCall(s, o.K))
					accs[1].Add(scale * dpay)
				}
			} else {
				for _, s := range st {
					var dpay float64
					if s < o.K {
						dpay = -s / m.S0
					}
					accs[0].Add(scale * payoffPut(s, o.K))
					accs[1].Add(scale * dpay)
				}
			}
		}
		var accs []mathutil.Welford
		if antithetic {
			// Pair each draw with its mirror: the averaged pair is one
			// sample with strictly smaller variance for monotone payoffs.
			// The kernel shards over pairs, so each pair stays on one
			// stream.
			pairPay := func(s1, s2 float64) (pay, dpay float64) {
				if isCall {
					pay = payoffCall(s1, o.K) + payoffCall(s2, o.K)
					if s1 > o.K {
						dpay = s1 / m.S0
					}
					if s2 > o.K {
						dpay += s2 / m.S0
					}
				} else {
					pay = payoffPut(s1, o.K) + payoffPut(s2, o.K)
					if s1 < o.K {
						dpay = -s1 / m.S0
					}
					if s2 < o.K {
						dpay += -s2 / m.S0
					}
				}
				return pay, dpay
			}
			accs, err = runPathKernel(p, paths/2, 2, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
				g := sc.floats(soaBlock)
				st1 := sc.floats(soaBlock)
				st2 := sc.floats(soaBlock)
				for done := 0; done < n; done += soaBlock {
					bn := min(soaBlock, n-done)
					rng.NormVec(g[:bn])
					for i := 0; i < bn; i++ {
						st1[i] = m.S0 * math.Exp(drift+vol*g[i])
						st2[i] = m.S0 * math.Exp(drift+vol*-g[i])
					}
					for i := 0; i < bn; i++ {
						p12, d12 := pairPay(st1[i], st2[i])
						accs[0].Add(df * p12 / 2)
						accs[1].Add(df * d12 / 2)
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
						st[i] = m.S0 * math.Exp(drift+vol*g[i])
					}
					payoffPass(st[:bn], accs, df)
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

	case OptCallUpOut:
		return mcCallUpOut(p)

	case OptCallDownOut:
		o, err := barrierFrom(p)
		if err != nil {
			return Result{}, err
		}
		if m.S0 <= o.L {
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
		lnL := math.Log(o.L)
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
					if xNext <= lnL {
						alive = false
						break
					}
					// P(bridge from x to xNext dips below lnL).
					pHit := math.Exp(-2 * (x - lnL) * (xNext - lnL) / sig2dt)
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
// parallel.go.
func mcBasket(p *Problem) (Result, error) {
	m, err := mbsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	if paths < 2 {
		return Result{}, fmt.Errorf("premia: MC_Basket needs paths >= 2, got %d", paths)
	}
	d := m.Dim
	chol, err := mathutil.NewEquiFactor(d, m.Rho)
	if err != nil {
		return Result{}, fmt.Errorf("premia: basket correlation: %w", err)
	}
	drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * o.T
	vol := m.Sigma * math.Sqrt(o.T)
	df := math.Exp(-m.R * o.T)

	isCall := p.Option == OptCallBasketEuro
	// Struct-of-arrays: draw a whole block of path normals in one batched
	// pass, then correlate / evolve / accumulate path by path, path i of
	// a block taking normals i·d … i·d+d−1.
	block := soaBlock / d
	if block < 1 {
		block = 1
	}
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		g := sc.floats(block * d)
		cz := sc.floats(d)
		st := sc.floats(d)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			rng.NormVec(g[:bn*d])
			for i := 0; i < bn; i++ {
				chol.Mul(g[i*d:(i+1)*d], cz)
				for j := 0; j < d; j++ {
					st[j] = m.S0 * math.Exp(drift+vol*cz[j])
				}
				if isCall {
					accs[0].Add(df * payoffCall(basketValue(st), o.K))
				} else {
					accs[0].Add(df * payoffPut(basketValue(st), o.K))
				}
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
		Work: float64(paths) * float64(d),
	}, nil
}

// mcLocalVol implements MC_LocalVol: log-Euler simulation under the
// parametric local-volatility surface, sharded over the multicore pricing
// kernel. Parameters: "paths", "mcsteps", "threads".
func mcLocalVol(p *Problem) (Result, error) {
	m, err := lvFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	steps, err := p.Params.size("mcsteps", mcDefaultSteps)
	if err != nil {
		return Result{}, err
	}
	if paths < 2 || steps < 1 {
		return Result{}, fmt.Errorf("premia: MC_LocalVol needs paths >= 2 and mcsteps >= 1")
	}
	isCall := p.Option == OptCallEuro
	dt := o.T / float64(steps)
	sqdt := math.Sqrt(dt)
	df := math.Exp(-m.R * o.T)
	// Struct-of-arrays: each block's normals (steps per path) are drawn in
	// one batched pass; the sequential-in-time evolution then consumes its
	// path's row.
	block := soaBlock / steps
	if block < 1 {
		block = 1
	}
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		g := sc.floats(block * steps)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			rng.NormVec(g[:bn*steps])
			for i := 0; i < bn; i++ {
				row := g[i*steps : (i+1)*steps]
				s := m.S0
				t := 0.0
				for k := 0; k < steps; k++ {
					sig := m.Vol(t, s)
					s *= math.Exp((m.R-m.Div-0.5*sig*sig)*dt + sig*sqdt*row[k])
					t += dt
				}
				var pay float64
				if isCall {
					pay = payoffCall(s, o.K)
				} else {
					pay = payoffPut(s, o.K)
				}
				accs[0].Add(df * pay)
			}
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
