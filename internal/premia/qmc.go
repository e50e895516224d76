package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// MethodQMCBasket prices European basket puts by randomised quasi-Monte
// Carlo: rotated Halton points mapped through the inverse normal CDF and
// the correlation Cholesky factor. Several independent rotations provide
// the confidence interval. Each rotation's point set is partitioned into
// leapfrogged Halton streams consumed by the multicore pricing kernel, so
// the evaluated point set is identical to a serial scan regardless of the
// thread count. Parameters: "paths" (total points), "rotations"
// (default 8), "threads".
const MethodQMCBasket = "QMC_Basket"

func qmcBasket(p *Problem) (Result, error) {
	m, err := mbsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	rotations, err := p.Params.size("rotations", 8)
	if err != nil {
		return Result{}, err
	}
	if paths < 2 || rotations < 2 {
		return Result{}, fmt.Errorf("premia: QMC_Basket needs paths >= 2 and rotations >= 2")
	}
	if m.Dim > mathutil.MaxHaltonDim {
		return Result{}, fmt.Errorf("premia: QMC_Basket supports dim <= %d, got %d", mathutil.MaxHaltonDim, m.Dim)
	}
	d := m.Dim
	chol, err := mathutil.NewEquiFactor(d, m.Rho)
	if err != nil {
		return Result{}, fmt.Errorf("premia: QMC basket correlation: %w", err)
	}
	drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * o.T
	vol := m.Sigma * math.Sqrt(o.T)
	df := math.Exp(-m.R * o.T)
	perRot := paths / rotations
	if perRot < 1 {
		perRot = 1
	}
	isCall := p.Option == OptCallBasketEuro
	kern, err := kernelOf(p)
	if err != nil {
		return Result{}, err
	}
	// Each rotation is cut into leapfrogged Halton streams (stream j of L
	// takes sequence positions j, j+L, …), one kernel shard per
	// (rotation, stream) pair. The streams share the rotation's random
	// shift, so their union is exactly the serial point set; per-rotation
	// partial sums are reduced in stream order, keeping the estimate
	// thread-invariant.
	streams := kernelShards / rotations
	if streams < 1 {
		streams = 1
	}
	if streams > perRot {
		streams = perRot
	}
	sums := make([]float64, rotations*streams)
	a := getArena(rotations * streams)
	defer putArena(a)
	kernelRun(kern.threads, rotations*streams, func(shard int) {
		rot := shard / streams
		j := shard % streams
		h := mathutil.NewHaltonLeap(d, kern.seed+uint64(rot)*0x9e3779b9, uint64(1+j), uint64(streams))
		count := (perRot - j + streams - 1) / streams
		sc := &a.shards[shard]
		u := sc.floats(d)
		z := sc.floats(d)
		cz := sc.floats(d)
		st := sc.floats(d)
		sum := 0.0
		for i := 0; i < count; i++ {
			h.Next(u)
			mathutil.InvNormCDFBatch(z, u)
			chol.Mul(z, cz)
			for k := 0; k < d; k++ {
				st[k] = m.S0 * math.Exp(drift+vol*cz[k])
			}
			sum += df * vanillaPayoff(isCall, basketValue(st), o.K)
		}
		sums[shard] = sum
	})
	// Across-rotation statistics give an unbiased error estimate for the
	// randomised QMC estimator.
	var across mathutil.Welford
	for rot := 0; rot < rotations; rot++ {
		sum := 0.0
		for j := 0; j < streams; j++ {
			sum += sums[rot*streams+j]
		}
		across.Add(sum / float64(perRot))
	}
	return Result{
		Price: across.Mean(), PriceCI: across.HalfWidth95(),
		Work: float64(perRot) * float64(rotations) * float64(d),
	}, nil
}
