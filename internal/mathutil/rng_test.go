package mathutil

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at %d: %d != %d", i, x, y)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestRNGFloat64OpenRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100000; i++ {
		u := r.Float64Open()
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(99)
	var w Welford
	n := 200000
	for i := 0; i < n; i++ {
		w.Add(r.Float64())
	}
	if m := w.Mean(); math.Abs(m-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
	if v := w.Variance(); math.Abs(v-1.0/12) > 0.003 {
		t.Errorf("uniform variance = %v, want ~%v", v, 1.0/12)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(123)
	var w Welford
	n := 200000
	skew := 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		w.Add(x)
		skew += x * x * x
	}
	if m := w.Mean(); math.Abs(m) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if v := w.Variance(); math.Abs(v-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", v)
	}
	if s := skew / float64(n); math.Abs(s) > 0.03 {
		t.Errorf("normal third moment = %v, want ~0", s)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d has %d hits, want ~10000", i, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(77)
	a := r.Split(0)
	b := r.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestRNGSplitDeterministic(t *testing.T) {
	a := NewRNG(10).Split(3)
	b := NewRNG(10).Split(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestNormVec(t *testing.T) {
	r := NewRNG(11)
	v := make([]float64, 64)
	r.NormVec(v)
	allZero := true
	for _, x := range v {
		if x != 0 {
			allZero = false
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("NormVec produced %v", x)
		}
	}
	if allZero {
		t.Fatal("NormVec left the slice zeroed")
	}
}

// TestMul64MatchesBig checks the LCG's 128-bit product, built on the
// 64×64-bit bits.Mul64, against math/big modulo 2¹²⁸.
func TestMul64MatchesBig(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	wide := func(hi, lo uint64) *big.Int {
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		return x.Or(x, new(big.Int).SetUint64(lo))
	}
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		hi, lo := mul128(aHi, aLo, bHi, bLo)
		want := new(big.Int).Mul(wide(aHi, aLo), wide(bHi, bLo))
		return wide(hi, lo).Cmp(want.Mod(want, mod)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPCGStreamGolden pins the first 16 outputs of three seeds, recorded
// from the generator before its step used math/bits.
func TestPCGStreamGolden(t *testing.T) {
	golden := map[uint64][16]uint64{
		0: {0x8d1275cca79d3dd2, 0xbe112ff175ad7683, 0xd23cf45e0abddcb2, 0x6439201b8f0531d4,
			0xa8a97a6c8a6ae2c4, 0x1e50853c74c410c7, 0xdb2190bd3920805b, 0xb0977053c126de9b,
			0xb653933ae40acd91, 0x44de66756b1ef792, 0xcf4364ca7b80b9b0, 0x9fb2336f8b0379b3,
			0xd90665d36520c527, 0x69c64357a8e29622, 0x951931aa27088bde, 0x42eacf9fee93eab8},
		1: {0xab4614ad0ee2196f, 0xba29ed5f3f2b4732, 0x034f2df38caee448, 0xc284f7587db23d17,
			0x3d5f3a38b99a4e29, 0xd3126804d81bcc36, 0xace42b1876a5e7d6, 0xa980cbc080fe3d77,
			0x9f809eafa04a1d00, 0x817181974709e539, 0x469ab61efcffa658, 0xc8e306b90216e4e3,
			0xf11084bbfc58d32d, 0x8456d32ad7a99a40, 0x900823b57a306e17, 0x2aecbe498e1918e8},
		42: {0xb6f53aa05b593bc8, 0x81a5f3d88d3e5086, 0x552e14516223226b, 0xa020ed2ed3d42ddf,
			0x46bcaeeb9a1a24b7, 0x0ff062c31cec6033, 0x9b0d3ccf1afa346f, 0x1f45127558c3fa04,
			0x4545f5d2ef5169c5, 0xc47e7e2172e19890, 0xdae803aafade7667, 0xb2798015f794f4f6,
			0xeb150654a3b95628, 0xcad3eae6f2f3a8dd, 0xe59e17cad2cc140d, 0xdf8848f3a62d78c8},
	}
	for seed, want := range golden {
		r := NewRNG(seed)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("seed %d: output %d = %#016x, want %#016x", seed, i, got, w)
			}
		}
	}
}
