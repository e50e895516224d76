package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	if w.n != 5 {
		t.Fatalf("N = %d", w.n)
	}
	if math.Abs(w.Mean()-3) > 1e-15 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v", w.Variance())
	}
	if math.Abs(w.StdErr()-math.Sqrt(0.5)) > 1e-12 {
		t.Fatalf("StdErr = %v", w.StdErr())
	}
	if w.HalfWidth95() <= 0 {
		t.Fatal("HalfWidth95 not positive")
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(split) % len(xs)
		var whole, a, b Welford
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		scale := math.Max(1, math.Abs(whole.Mean()))
		return a.n == whole.n &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-9*scale &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-6*math.Max(1, whole.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	a.Merge(b) // merging empty is a no-op
	if a.n != 2 || a.Mean() != 2 {
		t.Fatal("merge with empty changed state")
	}
	var c Welford
	c.Merge(a)
	if c.n != 2 || c.Mean() != 2 {
		t.Fatal("merge into empty lost state")
	}
}

func TestMeanMax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}
