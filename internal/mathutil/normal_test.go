package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		got := NormCDF(c.x)
		if math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) && math.Abs(got-c.want) > 1e-15 {
			t.Errorf("NormCDF(%v) = %.17g, want %.17g", c.x, got, c.want)
		}
	}
}

func TestNormPDFKnownValues(t *testing.T) {
	if got := NormPDF(0); math.Abs(got-invSqrt2Pi) > 1e-16 {
		t.Errorf("NormPDF(0) = %v", got)
	}
	if got := NormPDF(1); math.Abs(got-0.24197072451914337) > 1e-15 {
		t.Errorf("NormPDF(1) = %v", got)
	}
}

func TestInvNormCDFRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-8, 0.001, 0.02425, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97575, 0.999, 1 - 1e-8} {
		x := invNorm(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-11*math.Max(p, 1e-3) && math.Abs(back-p) > 1e-14 {
			t.Errorf("NormCDF(invNorm(%g)) = %g", p, back)
		}
	}
}

func TestInvNormCDFEdges(t *testing.T) {
	if !math.IsInf(invNorm(0), -1) {
		t.Error("invNorm(0) should be -Inf")
	}
	if !math.IsInf(invNorm(1), 1) {
		t.Error("invNorm(1) should be +Inf")
	}
	if !math.IsNaN(invNorm(math.NaN())) {
		t.Error("invNorm(NaN) should be NaN")
	}
	if invNorm(0.5) != 0 {
		// Acklam central branch at exactly 0.5 gives 0 before refinement;
		// refinement keeps it 0 up to floating error.
		if math.Abs(invNorm(0.5)) > 1e-15 {
			t.Errorf("invNorm(0.5) = %v", invNorm(0.5))
		}
	}
}

// TestInvNormCDFTailRoundTrip walks log-spaced probabilities down to
// p = 1e-320 (deep in the subnormal range) and checks that InvNormCDFBatch
// stays finite and round-trips through NormCDF. Beyond p ≈ 1e-310 the
// refinement runs in its density-quotient form on subnormal
// intermediates, so the tolerance widens there: at p = 1e-320 the
// probability itself has only ~11 mantissa bits left.
func TestInvNormCDFTailRoundTrip(t *testing.T) {
	for k := 1; k <= 320; k++ {
		p := math.Pow(10, -float64(k))
		x := invNorm(p)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("invNorm(1e-%d) = %v, want finite", k, x)
		}
		back := NormCDF(x)
		tol := 1e-8
		if k > 300 {
			tol = 1e-2
		}
		if math.Abs(back-p) > tol*p {
			t.Errorf("NormCDF(invNorm(1e-%d)) = %g, want %g (rel %g)", k, back, p, math.Abs(back-p)/p)
		}
	}
}

// TestInvNormCDFUpperTailRoundTrip mirrors the lower-tail walk near 1:
// for p = 1-10^-k the round trip is checked on the survival side via
// 0.5*Erfc(x/√2), since NormCDF(x) itself rounds to 1.0 there and would
// hide any tail error.
func TestInvNormCDFUpperTailRoundTrip(t *testing.T) {
	for k := 1; k <= 16; k++ {
		p := 1 - math.Pow(10, -float64(k))
		if p >= 1 {
			break
		}
		x := invNorm(p)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("invNorm(1-1e-%d) = %v, want finite", k, x)
		}
		// The accuracy floor near 1 is the 2⁻⁵³ spacing of doubles: the
		// Halley residual NormCDF(x)-p is quantized to ~1.1e-16 absolute,
		// which shows up as ~1e-7 relative in the recovered survival.
		q := 1 - p // the exactly-representable complement
		surv := 0.5 * math.Erfc(x/math.Sqrt2)
		if math.Abs(surv-q) > 1e-6*q {
			t.Errorf("survival(invNorm(1-1e-%d)) = %g, want %g", k, surv, q)
		}
	}
}

// TestInvNormCDFExtremeEdges pins the tail-domain guarantee at the very
// ends of (0,1): the smallest subnormal and the largest double below 1
// must map to finite quantiles of the right sign, not NaN — the
// pre-fix Halley step returned Inf/-Inf = NaN here.
func TestInvNormCDFExtremeEdges(t *testing.T) {
	// At 5e-324 the Acklam fit is extrapolated well past its q ≈ 37.6
	// design range, so only finiteness and a deep-tail magnitude are
	// guaranteed, not the usual accuracy.
	lo := invNorm(math.SmallestNonzeroFloat64) // p = 5e-324
	if math.IsNaN(lo) || math.IsInf(lo, 0) || lo > -35 {
		t.Errorf("invNorm(5e-324) = %v, want finite below -35", lo)
	}
	hi := invNorm(math.Nextafter(1, 0)) // p = 1 - 2^-53
	if math.IsNaN(hi) || math.IsInf(hi, 0) || hi < 8 {
		t.Errorf("invNorm(1-2^-53) = %v, want finite above 8", hi)
	}
}

// TestInvNormCDFBatchBitIdentical: the batch is element-wise — a point's
// bits do not depend on the slice it arrives in, so a kernel may cut its
// uniforms into batches of any size — including the edge conventions for
// 0, 1, NaN and subnormal inputs.
func TestInvNormCDFBatchBitIdentical(t *testing.T) {
	ps := []float64{
		0, 1, math.NaN(), -0.5, 2,
		math.SmallestNonzeroFloat64, 1e-320, 1e-300, 1e-100, 1e-12,
		0.02425, 0.3, 0.5, 0.7, 1 - 0.02425, 0.999, 1 - 1e-12, math.Nextafter(1, 0),
	}
	rng := NewRNG(7)
	for i := 0; i < 100; i++ {
		ps = append(ps, rng.Float64Open())
	}
	dst := make([]float64, len(ps))
	InvNormCDFBatch(dst, ps)
	for i, p := range ps {
		if want := invNorm(p); math.Float64bits(dst[i]) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(dst[i])) {
			t.Errorf("batch[%d] for p=%g: %x, alone %x", i, p, math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
}

func TestInvNormCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return invNorm(pa) <= invNorm(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormCDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 10)
		return math.Abs(NormCDF(x)+NormCDF(-x)-1) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// invNorm is the inverse normal CDF at one point, through the batch form
// the kernels call.
func invNorm(p float64) float64 {
	var x [1]float64
	InvNormCDFBatch(x[:], []float64{p})
	return x[0]
}
