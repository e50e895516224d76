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

// mcAmerLSM implements MC_AM_LongstaffSchwartz for American puts under
// one-dimensional Black–Scholes and for American basket puts under the
// n-dimensional model. The continuation value is regressed on monomials of
// the (basket) spot over in-the-money paths, per the original algorithm.
// Parameters: "paths", "exdates", "degree".
func mcAmerLSM(p *Problem) (Result, error) {
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
	degree, err := p.Params.size("degree", lsmDefaultDegree)
	if err != nil {
		return Result{}, err
	}
	if paths < 10 || exDates < 2 || degree < 1 {
		return Result{}, fmt.Errorf("premia: LSM needs paths >= 10, exdates >= 2, degree >= 1")
	}

	var dim int
	var s0, r, div, sigma, rho float64
	switch p.Model {
	case ModelBS1D:
		m, err := bsFrom(p)
		if err != nil {
			return Result{}, err
		}
		dim, s0, r, div, sigma, rho = 1, m.S0, m.R, m.Div, m.Sigma, 0
	case ModelBSND:
		m, err := mbsFrom(p)
		if err != nil {
			return Result{}, err
		}
		dim, s0, r, div, sigma, rho = m.Dim, m.S0, m.R, m.Div, m.Sigma, m.Rho
	default:
		return Result{}, fmt.Errorf("premia: LSM does not support model %q", p.Model)
	}

	// The basket, the regression's design row, cash, ys and idx per path,
	// and each shard's normals for one path.
	if err := lsmFits(paths, exDates, paths*(exDates+degree+4)+kernelShards*exDates*dim); err != nil {
		return Result{}, err
	}
	chol, err := mathutil.NewEquiFactor(dim, rho)
	if err != nil {
		return Result{}, fmt.Errorf("premia: LSM correlation: %w", err)
	}

	// Simulate the basket value at each exercise date for each path. Only
	// the basket average is needed by the payoff and the regression, so
	// paths×dates floats suffice even in dimension 40. Path generation is
	// the method's hot phase and runs sharded on the multicore pricing
	// kernel, each shard writing its disjoint block of the basket matrix;
	// the backward induction below stays serial (it regresses across
	// paths).
	dt := o.T / float64(exDates)
	drift := (r - div - 0.5*sigma*sigma) * dt
	vol := sigma * math.Sqrt(dt)
	basket := make([]float64, paths*exDates) // basket[i*exDates+k] at date k+1
	logS0 := math.Log(s0)
	err = runIndexedKernel(p, paths, func(_, start, count int, rng *mathutil.RNG, sc *kernelScratch) {
		logS := sc.floats(dim)
		cz := sc.floats(dim)
		// All of a path's normals (exDates·dim) are drawn in one batched
		// pass; the date loop then consumes them row by row, date-major
		// and asset-minor.
		z := sc.floats(exDates * dim)
		for i := start; i < start+count; i++ {
			for j := range logS {
				logS[j] = logS0
			}
			rng.NormVec(z)
			for k := 0; k < exDates; k++ {
				chol.Mul(z[k*dim:(k+1)*dim], cz)
				sum := 0.0
				for j := 0; j < dim; j++ {
					logS[j] += drift + vol*cz[j]
					sum += math.Exp(logS[j])
				}
				basket[i*exDates+k] = sum / float64(dim)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}

	// Backward induction with regression over in-the-money paths.
	discStep := math.Exp(-r * dt)
	cash := make([]float64, paths) // value along each path, discounted to the current date
	for i := 0; i < paths; i++ {
		cash[i] = payoffPut(basket[i*exDates+exDates-1], o.K)
	}
	nb := degree + 1
	design := make([]float64, paths*nb)
	ys := make([]float64, paths)
	idx := make([]int, paths)
	beta := make([]float64, nb)
	basis := make([]float64, nb)
	work := float64(paths) * float64(exDates) * float64(dim)
	for k := exDates - 2; k >= 0; k-- {
		for i := range cash {
			cash[i] *= discStep
		}
		// Gather in-the-money paths.
		n := 0
		for i := 0; i < paths; i++ {
			b := basket[i*exDates+k]
			if payoffPut(b, o.K) > 0 {
				mathutil.PolyBasis(b/o.K, design[n*nb:(n+1)*nb]) // normalise for conditioning
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
			b := basket[i*exDates+k]
			exercise := payoffPut(b, o.K)
			mathutil.PolyBasis(b/o.K, basis)
			cont := 0.0
			for q := 0; q < nb; q++ {
				cont += beta[q] * basis[q]
			}
			if exercise > cont {
				cash[i] = exercise
			}
		}
		work += float64(n) * float64(nb) * float64(nb)
	}
	var w mathutil.Welford
	for i := 0; i < paths; i++ {
		w.Add(discStep * cash[i])
	}
	price := w.Mean()
	// The American value dominates immediate exercise at t=0.
	if ex := payoffPut(s0, o.K); ex > price {
		price = ex
	}
	return Result{Price: price, PriceCI: w.HalfWidth95(), Work: work}, nil
}

// mcAmerAlfonsi implements MC_AM_Alfonsi_LongstaffSchwartz, the method
// named in the paper's Nsp example: an American put under Heston, with the
// variance simulated by Alfonsi's drift-implicit square-root scheme (exact
// positivity when 4κθ ≥ σᵥ²; full-truncation Euler fallback otherwise)
// and exercise decided by a Longstaff–Schwartz regression on (S, V).
// Parameters: "paths", "exdates", "degree".
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
	err = runIndexedKernel(p, paths, func(_, start, count int, rng *mathutil.RNG, sc *kernelScratch) {
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
				spots[i*exDates+k] = math.Exp(x)
				vars[i*exDates+k] = v
			}
		}
	})
	if err != nil {
		return Result{}, err
	}

	// LSM on the 2-d state (S, V): basis {1, s, s², s³, v, s·v} with
	// s = S/K normalised.
	const nb = 6
	discStep := math.Exp(-m.R * dt)
	cash := make([]float64, paths)
	for i := 0; i < paths; i++ {
		cash[i] = payoffPut(spots[i*exDates+exDates-1], o.K)
	}
	design := make([]float64, paths*nb)
	ys := make([]float64, paths)
	idx := make([]int, paths)
	beta := make([]float64, nb)
	fill := func(dst []float64, s, v float64) {
		sn := s / o.K
		dst[0] = 1
		dst[1] = sn
		dst[2] = sn * sn
		dst[3] = sn * sn * sn
		dst[4] = v
		dst[5] = sn * v
	}
	var basis [nb]float64
	work := float64(paths) * float64(exDates) * 4
	for k := exDates - 2; k >= 0; k-- {
		for i := range cash {
			cash[i] *= discStep
		}
		n := 0
		for i := 0; i < paths; i++ {
			s := spots[i*exDates+k]
			if payoffPut(s, o.K) > 0 {
				fill(design[n*nb:(n+1)*nb], s, vars[i*exDates+k])
				ys[n] = cash[i]
				idx[n] = i
				n++
			}
		}
		if n <= nb {
			continue
		}
		if err := mathutil.LeastSquares(design[:n*nb], n, nb, ys[:n], beta); err != nil {
			return Result{}, fmt.Errorf("premia: Alfonsi LSM regression at date %d: %w", k, err)
		}
		for j := 0; j < n; j++ {
			i := idx[j]
			s := spots[i*exDates+k]
			exercise := payoffPut(s, o.K)
			fill(basis[:], s, vars[i*exDates+k])
			cont := 0.0
			for q := 0; q < nb; q++ {
				cont += beta[q] * basis[q]
			}
			if exercise > cont {
				cash[i] = exercise
			}
		}
		work += float64(n) * nb * nb
	}
	var w mathutil.Welford
	for i := 0; i < paths; i++ {
		w.Add(discStep * cash[i])
	}
	price := w.Mean()
	if ex := payoffPut(m.S0, o.K); ex > price {
		price = ex
	}
	return Result{Price: price, PriceCI: w.HalfWidth95(), Work: work}, nil
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
