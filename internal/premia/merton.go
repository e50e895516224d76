package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// ModelMerton is Merton's jump-diffusion model, the simplest of the Lévy
// models Premia ships: Black–Scholes dynamics plus compound-Poisson
// lognormal jumps.
const ModelMerton = "Merton1dim"

// Merton-specific method names.
const (
	// MethodCFMerton prices European calls/puts by Merton's conditioning
	// series (a Poisson mixture of Black–Scholes prices).
	MethodCFMerton = "CF_Merton"
	// MethodMCMerton simulates the jump diffusion exactly at maturity.
	MethodMCMerton = "MC_Merton"
)

// mertonParams are the jump-diffusion parameters: diffusion volatility
// sigma plus jump intensity lambda and lognormal jump sizes
// ln J ~ N(muJ, sigmaJ²).
type mertonParams struct {
	S0, R, Div, Sigma   float64
	Lambda, MuJ, SigmaJ float64
}

func mertonFrom(p *Problem) (mertonParams, error) {
	var m mertonParams
	base, err := bsFrom(p)
	if err != nil {
		return m, err
	}
	m.S0, m.R, m.Div, m.Sigma = base.S0, base.R, base.Div, base.Sigma
	if m.Lambda, err = p.Params.NeedPositive("lambda"); err != nil {
		return m, err
	}
	m.MuJ = p.Params.Get("muJ", 0)
	m.SigmaJ = p.Params.Get("sigmaJ", 0)
	if m.SigmaJ < 0 {
		return m, fmt.Errorf("premia: sigmaJ must be >= 0, got %v", m.SigmaJ)
	}
	return m, nil
}

// kbar returns E[J−1], the expected relative jump size, which enters the
// drift compensator.
func (m mertonParams) kbar() float64 {
	return math.Exp(m.MuJ+0.5*m.SigmaJ*m.SigmaJ) - 1
}

// mertonSeriesTerms bounds the Poisson series; with weights decaying
// factorially, 60 terms cover any realistic λT at double precision.
const mertonSeriesTerms = 60

// cfMerton implements CF_Merton: conditioning on the number of jumps N=n,
// the price is Σ P(N=n)·BS(σ_n, r_n) with
//
//	σ_n² = σ² + n·σJ²/T,
//	r_n  = r − λk̄ + n·ln(1+k̄)/T.
func cfMerton(p *Problem) (Result, error) {
	m, err := mertonFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	formula := bsVanilla(p.Option == OptCallEuro)
	kb := m.kbar()
	lambdaP := m.Lambda * (1 + kb) // intensity under the jump-size tilt
	price, delta := 0.0, 0.0
	weight := math.Exp(-lambdaP * o.T)
	for n := 0; n < mertonSeriesTerms; n++ {
		if n > 0 {
			weight *= lambdaP * o.T / float64(n)
		}
		sigmaN := math.Sqrt(m.Sigma*m.Sigma + float64(n)*m.SigmaJ*m.SigmaJ/o.T)
		rN := m.R - m.Lambda*kb + float64(n)*math.Log(1+kb)/o.T
		bs := bsParams{S0: m.S0, R: rN, Div: m.Div, Sigma: sigmaN}
		pn, dn := formula(bs, o.K, o.T)
		// Each term is a complete Black–Scholes price at rate rN (drift
		// and discounting both), per Merton's original series.
		price += weight * pn
		delta += weight * dn
	}
	return Result{Price: price, Delta: delta, HasDelta: true, Work: mertonSeriesTerms}, nil
}

// mcMerton implements MC_Merton: exact terminal sampling of the jump
// diffusion (Gaussian diffusion + Poisson number of lognormal jumps) on
// the multicore pricing kernel. Parameters: "paths", "threads".
func mcMerton(p *Problem) (Result, error) {
	m, err := mertonFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	if paths < 2 {
		return Result{}, fmt.Errorf("premia: MC_Merton needs paths >= 2")
	}
	isCall := p.Option == OptCallEuro
	kb := m.kbar()
	drift := (m.R - m.Div - m.Lambda*kb - 0.5*m.Sigma*m.Sigma) * o.T
	vol := m.Sigma * math.Sqrt(o.T)
	df := math.Exp(-m.R * o.T)
	meanJumps := m.Lambda * o.T
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
		for i := 0; i < n; i++ {
			x := drift + vol*rng.Norm()
			if jumps := poisson(rng, meanJumps); jumps > 0 {
				x += float64(jumps)*m.MuJ + m.SigmaJ*math.Sqrt(float64(jumps))*rng.Norm()
			}
			accs[0].Add(df * vanillaPayoff(isCall, m.S0*math.Exp(x), o.K))
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
		Work: float64(paths),
	}, nil
}

// poisson draws a Poisson variate by Knuth's product method for small
// means and a Gaussian approximation with continuity correction above 30
// (ample for λT in pricing contexts).
func poisson(rng *mathutil.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.Norm() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-mean)
	n := 0
	prod := rng.Float64()
	for prod > limit {
		n++
		prod *= rng.Float64()
	}
	return n
}
