package mathutil

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// expPrec is the working precision of the math/big references.
const expPrec = 200

// bigLn2 is ln 2 to expPrec bits: 2·atanh(1/3) = 2·Σ 3^−(2k+1)/(2k+1).
func bigLn2() *big.Float {
	sum := new(big.Float).SetPrec(expPrec)
	pow := new(big.Float).SetPrec(expPrec).Quo(big.NewFloat(1), big.NewFloat(3))
	ninth := new(big.Float).SetPrec(expPrec).Quo(big.NewFloat(1), big.NewFloat(9))
	term := new(big.Float).SetPrec(expPrec)
	for k := 0; k < 70; k++ {
		term.Quo(pow, big.NewFloat(float64(2*k+1)))
		sum.Add(sum, term)
		pow.Mul(pow, ninth)
	}
	return sum.Mul(sum, big.NewFloat(2))
}

// bigExp is e^x to about expPrec bits: x = k·ln2 + r, e^r by its Taylor
// series, scaled by 2^k.
func bigExp(x float64, ln2 *big.Float) *big.Float {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(expPrec).SetFloat64(x)
	r.Sub(r, new(big.Float).SetPrec(expPrec).Mul(ln2, big.NewFloat(k)))
	sum := new(big.Float).SetPrec(expPrec).SetInt64(1)
	term := new(big.Float).SetPrec(expPrec).SetInt64(1)
	for n := 1; n < 60; n++ {
		term.Mul(term, r)
		term.Quo(term, big.NewFloat(float64(n)))
		sum.Add(sum, term)
	}
	return sum.SetMantExp(sum, int(k))
}

// ulpsFrom is |got − ref| in units of the last place of a float64 of
// ref's magnitude (ref a normal float's).
func ulpsFrom(got float64, ref *big.Float) float64 {
	e := ref.MantExp(nil) // ref ∈ [2^(e−1), 2^e): an ulp there is 2^(e−53)
	d := new(big.Float).SetPrec(expPrec).SetFloat64(got)
	d.Sub(d, ref)
	d.SetMantExp(d, 53-e)
	f, _ := d.Float64()
	return math.Abs(f)
}

// expArgs are the ulp tests' arguments: 10 000 over the admitted range,
// 10 000 of log-spot and log-increment size, seeded.
func expArgs() []float64 {
	rng := rand.New(rand.NewSource(37))
	xs := make([]float64, 0, 20000)
	for i := 0; i < 10000; i++ {
		xs = append(xs, expMin+(expMax-expMin)*rng.Float64())
		xs = append(xs, 12*rng.Float64()-6)
	}
	return xs
}

// TestExpULP holds Exp to within 2 ulp of e^x computed with math/big over
// 20 000 arguments of the admitted range (the worst measured is 0.60
// ulp; math.Exp's worst on the same arguments is logged beside it), and
// ExpVec to Exp bit for bit, aliased or not.
func TestExpULP(t *testing.T) {
	ln2 := bigLn2()
	xs := expArgs()
	worst, worstX, mathWorst := 0.0, 0.0, 0.0
	for _, x := range xs {
		ref := bigExp(x, ln2)
		if u := ulpsFrom(Exp(x), ref); u > worst {
			worst, worstX = u, x
		}
		mathWorst = max(mathWorst, ulpsFrom(math.Exp(x), ref))
	}
	t.Logf("Exp: worst %.3f ulp (at %v); math.Exp: worst %.3f ulp, over %d arguments", worst, worstX, mathWorst, len(xs))
	if worst > 2 {
		t.Errorf("Exp(%v) is %.3f ulp from e^x, want at most 2", worstX, worst)
	}

	got := make([]float64, len(xs))
	ExpVec(got, xs)
	aliased := append([]float64(nil), xs...)
	ExpVec(aliased, aliased)
	for i, x := range xs {
		if want := math.Float64bits(Exp(x)); math.Float64bits(got[i]) != want || math.Float64bits(aliased[i]) != want {
			t.Fatalf("ExpVec at %v: %v (aliased %v), Exp %v", x, got[i], aliased[i], Exp(x))
		}
	}
}

// TestExpTable checks every table entry against math/big: T_j is 2^(j/N)
// correctly rounded, t_j its relative error rounded.
func TestExpTable(t *testing.T) {
	for j := uint64(0); j < expN; j++ {
		// y = 2^(j/N) by Newton's method on y^N = 2^j.
		target := new(big.Float).SetPrec(expPrec).SetMantExp(big.NewFloat(1), int(j))
		y := new(big.Float).SetPrec(expPrec).SetFloat64(math.Exp2(float64(j) / expN))
		for it := 0; it < 8; it++ {
			pow := new(big.Float).SetPrec(expPrec).Set(y) // y^(N−1)
			for n := 1; n < expN-1; n++ {
				pow.Mul(pow, y)
			}
			f := new(big.Float).SetPrec(expPrec).Mul(pow, y)
			f.Sub(f, target)
			f.Quo(f, pow.Mul(pow, big.NewFloat(expN)))
			y.Sub(y, f)
		}
		tj := math.Float64frombits(expTab[2*j+1] + j<<45)
		if want, _ := y.Float64(); tj != want {
			t.Errorf("T_%d = %v, want 2^(%d/%d) = %v", j, tj, j, expN, want)
		}
		rel := new(big.Float).SetPrec(expPrec).Sub(y, new(big.Float).SetFloat64(tj))
		rel.Quo(rel, new(big.Float).SetFloat64(tj))
		if want, _ := rel.Float64(); math.Float64frombits(expTab[2*j]) != want {
			t.Errorf("t_%d = %v, want %v", j, math.Float64frombits(expTab[2*j]), want)
		}
	}
}

// TestExpEdges: outside (expMin, expMax) Exp is math.Exp to the bit —
// NaN, ±Inf, overflow from 709.78 on, the subnormal range, zero from
// −745 down — and inside it e^0 is exactly 1 and the ends are finite.
func TestExpEdges(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), expMax, 709.78, 709.79, 710, 1e300, math.MaxFloat64,
		expMin, -708.5, -720, -740, -745, -745.2, -746, -1000, -math.MaxFloat64} {
		got := Exp(x)
		if !same(got, math.Exp(x)) {
			t.Errorf("Exp(%v) = %v, math.Exp %v", x, got, math.Exp(x))
		}
		v := []float64{x}
		if ExpVec(v, v); !same(v[0], got) {
			t.Errorf("ExpVec(%v) = %v, Exp %v", x, v[0], got)
		}
	}
	for _, tc := range []struct {
		x    float64
		want func(float64) bool
	}{
		{math.NaN(), math.IsNaN},
		{math.Inf(1), func(y float64) bool { return math.IsInf(y, 1) }},
		{709.79, func(y float64) bool { return math.IsInf(y, 1) }},
		{math.Inf(-1), func(y float64) bool { return y == 0 }},
		{-746, func(y float64) bool { return y == 0 }},
		{-720, func(y float64) bool { return y > 0 && y < 0x1p-1022 }}, // subnormal
		{0, func(y float64) bool { return y == 1 }},
		{math.Copysign(0, -1), func(y float64) bool { return y == 1 }},
		{5e-324, func(y float64) bool { return y == 1 }},
		{-5e-324, func(y float64) bool { return y == 1 }},
		{math.Nextafter(expMin, 0), func(y float64) bool { return y >= 0x1p-1022 }},
		{math.Nextafter(expMax, 0), func(y float64) bool { return !math.IsInf(y, 0) && y > 1e307 }},
	} {
		if got := Exp(tc.x); !tc.want(got) {
			t.Errorf("Exp(%v) = %v", tc.x, got)
		}
	}
}

// FuzzExp holds Exp within 2 ulp of math.Exp on any argument (NaN for
// NaN), and ExpVec to Exp bit for bit.
func FuzzExp(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 4.6, 0.0027, -0.0027, 707.9, -707.9, 709.78, -745.1, math.NaN(), math.Inf(1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		got, want := Exp(x), math.Exp(x)
		v := []float64{x}
		if ExpVec(v, v); math.Float64bits(v[0]) != math.Float64bits(got) {
			t.Fatalf("ExpVec(%v) = %v, Exp %v", x, v[0], got)
		}
		if math.IsNaN(want) || math.IsNaN(got) {
			if !math.IsNaN(want) || !math.IsNaN(got) {
				t.Fatalf("Exp(%v) = %v, math.Exp %v", x, got, want)
			}
			return
		}
		// Both are non-negative, so their bit patterns order as they do and
		// subtract to a distance in ulps.
		if d := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); d > 2 || d < -2 {
			t.Fatalf("Exp(%v) = %v is %d ulp from math.Exp %v", x, got, d, want)
		}
	})
}

// BenchmarkExp times an exp of 4096 log-spot-sized arguments (ln 100 ±
// a few tenths, as the Monte Carlo kernels take them) by math.Exp, by
// Exp one at a time, and by one ExpVec.
func BenchmarkExp(b *testing.B) {
	rng := NewRNG(1)
	x := make([]float64, 4096)
	for i := range x {
		x[i] = 4.6 + 0.3*rng.Norm()
	}
	dst := make([]float64, len(x))
	b.Run("math.Exp", func(b *testing.B) {
		for b.Loop() {
			for i, v := range x {
				dst[i] = math.Exp(v)
			}
		}
	})
	b.Run("Exp", func(b *testing.B) {
		for b.Loop() {
			for i, v := range x {
				dst[i] = Exp(v)
			}
		}
	})
	b.Run("ExpVec", func(b *testing.B) {
		for b.Loop() {
			ExpVec(dst, x)
		}
	})
}
