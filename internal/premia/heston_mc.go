package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// mcHestonEuro implements MC_Heston: European calls and puts under Heston
// with the variance advanced by Alfonsi's drift-implicit square-root
// scheme (full-truncation Euler fallback when 4κθ < σᵥ²). It
// cross-validates the semi-analytic CF_Heston pricer and is registered as
// a method in its own right, as Premia ships both. Paths run on the
// multicore pricing kernel. Parameters: "paths", "mcsteps", "threads".
func mcHestonEuro(p *Problem) (Result, error) {
	m, err := hestonFrom(p)
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
		return Result{}, fmt.Errorf("premia: MC_Heston needs paths >= 2 and mcsteps >= 1")
	}
	isCall := p.Option == OptCallEuro
	dt := o.T / float64(steps)
	sqdt := math.Sqrt(dt)
	useAlfonsi := 4*m.Kappa*m.Theta >= m.SigmaV*m.SigmaV
	rho2 := math.Sqrt(1 - m.Rho*m.Rho)
	df := math.Exp(-m.R * o.T)
	// Struct-of-arrays: a block's normals, 2·steps a path with z1 and z2
	// interleaved, are drawn in one batched pass, then the sequential
	// variance / log-spot evolution consumes its path's row.
	block := soaBlock / (2 * steps)
	if block < 1 {
		block = 1
	}
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		g := sc.floats(block * 2 * steps)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			rng.NormVec(g[:bn*2*steps])
			for i := 0; i < bn; i++ {
				row := g[i*2*steps : (i+1)*2*steps]
				x := math.Log(m.S0)
				v := m.V0
				for k := 0; k < steps; k++ {
					z1 := row[2*k]
					z2 := row[2*k+1]
					vNew := hestonVarStep(m, v, dt, sqdt*z1, useAlfonsi)
					x += hestonLogSpotIncrement(m, v, vNew, dt, rho2, z2)
					v = vNew
				}
				accs[0].Add(df * vanillaPayoff(isCall, math.Exp(x), o.K))
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
		Work: float64(paths) * float64(steps) * 2,
	}, nil
}

// hestonVarStep advances the CIR variance over one step of size dt given
// the Brownian increment dwV, by the Alfonsi scheme or the full-truncation
// Euler fallback.
func hestonVarStep(m hestonParams, v, dt, dwV float64, useAlfonsi bool) float64 {
	if useAlfonsi {
		return alfonsiStep(v, m.Kappa, m.Theta, m.SigmaV, dt, dwV)
	}
	vp := math.Max(v, 0)
	vNew := v + m.Kappa*(m.Theta-vp)*dt + m.SigmaV*math.Sqrt(vp)*dwV
	if vNew < 0 {
		vNew = 0
	}
	return vNew
}

// hestonLogSpotIncrement returns the log-spot increment over one step.
// The correlated part ρ∫√V dW_V is eliminated exactly through the CIR
// dynamics, ∫√V dW_V = (V_{t+Δ} − V_t − κθΔ + κ∫V ds)/σᵥ (Broadie–Kaya),
// with a trapezoidal ∫V ds; this avoids the drift bias that a naive
// √V·(ρ dW_V + …) update suffers when the variance scheme is implicit.
// z2 is the independent standard normal driving the orthogonal part; rho2
// is √(1−ρ²).
func hestonLogSpotIncrement(m hestonParams, v, vNew, dt, rho2, z2 float64) float64 {
	vInt := 0.5 * (math.Max(v, 0) + math.Max(vNew, 0)) * dt // ∫V ds over the step
	intSqrtVdWv := (vNew - v - m.Kappa*m.Theta*dt + m.Kappa*vInt) / m.SigmaV
	return (m.R-m.Div)*dt - 0.5*vInt + m.Rho*intSqrtVdWv + rho2*math.Sqrt(vInt)*z2
}
