package mathutil

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestZigguratTables checks the tables' identities: the base layer's
// rectangle ends at zigR, the top layer's at the peak, and every layer,
// the base with its tail, has area zigV, which is Marsaglia and Tsang's
// printed V.
func TestZigguratTables(t *testing.T) {
	if zigX[1] != zigR || zigX[256] != 0 {
		t.Fatalf("zigX[1] = %v, zigX[256] = %v; want %v and 0", zigX[1], zigX[256], zigR)
	}
	if math.Abs(zigV-4.92867323399e-3) > 1e-13 {
		t.Errorf("zigV = %v, want Marsaglia and Tsang's 4.92867323399e-3", zigV)
	}
	tail := math.Sqrt(math.Pi/2) * math.Erfc(zigR/math.Sqrt2)
	if a := zigR*zigF[1] + tail; math.Abs(a-zigV) > 1e-12 {
		t.Errorf("base layer area %v, want %v", a, zigV)
	}
	if a := zigX[0] * zigF[1]; math.Abs(a-zigV) > 1e-12 {
		t.Errorf("base pseudo-rectangle area %v, want %v", a, zigV)
	}
	for i := 1; i < 256; i++ {
		if !(zigX[i+1] < zigX[i]) {
			t.Fatalf("zigX not decreasing at %d: %v, %v", i, zigX[i], zigX[i+1])
		}
		if a := zigX[i] * (zigF[i+1] - zigF[i]); math.Abs(a-zigV) > 1e-12 {
			t.Errorf("layer %d area %v, want %v", i, a, zigV)
		}
	}
}

// TestNormVecShardStreams draws 10⁷ normals from each of four Split
// streams, as four kernel shards do, and holds each stream to N(0,1):
// the first four moments within five standard errors, the counts past
// ±3σ, ±4σ, ±5σ and |x| > zigR (the tail branch) within five binomial
// standard deviations, and a Kolmogorov–Smirnov statistic over its first
// 10⁶ draws below the 0.1 % critical value.
func TestNormVecShardStreams(t *testing.T) {
	const (
		n     = 10_000_000
		nKS   = 1_000_000
		kCrit = 1.95 // P(√n·D > 1.95) ≈ 0.001 under the null
	)
	base := NewRNG(20090101)
	for shard := uint64(0); shard < 4; shard++ {
		t.Run(fmt.Sprint("shard", shard), func(t *testing.T) {
			t.Parallel()
			r := &RNG{}
			base.SplitInto(r, shard)
			ks := make([]float64, nKS)
			r.NormVec(ks)
			var m [5]float64 // Σx^k
			var above, below [3]int
			beyondR := 0
			count := func(v []float64) {
				for _, x := range v {
					x2 := x * x
					m[1] += x
					m[2] += x2
					m[3] += x2 * x
					m[4] += x2 * x2
					for j := range above {
						c := float64(j + 3)
						if x > c {
							above[j]++
						} else if x < -c {
							below[j]++
						}
					}
					if math.Abs(x) > zigR {
						beyondR++
					}
				}
			}
			count(ks)
			buf := make([]float64, 4096)
			for done := nKS; done < n; done += len(buf) {
				v := buf[:min(len(buf), n-done)]
				r.NormVec(v)
				count(v)
			}

			// Moments: E x^k and the variance of x^k under N(0,1).
			want := [5]float64{0, 0, 1, 0, 3}
			varK := [5]float64{0, 1, 2, 15, 96}
			for k := 1; k <= 4; k++ {
				got := m[k] / n
				if se := math.Sqrt(varK[k] / n); math.Abs(got-want[k]) > 5*se {
					t.Errorf("moment %d = %.6g, want %v ± %.3g", k, got, want[k], 5*se)
				}
			}
			binom := func(what string, got int, p float64) {
				mean, sd := n*p, math.Sqrt(n*p*(1-p))
				if math.Abs(float64(got)-mean) > 5*sd {
					t.Errorf("%s: %d draws, want %.1f ± %.1f", what, got, mean, 5*sd)
				}
			}
			for j := range above {
				c := float64(j + 3)
				p := NormCDF(-c)
				binom(fmt.Sprintf("x > %vσ", c), above[j], p)
				binom(fmt.Sprintf("x < -%vσ", c), below[j], p)
			}
			binom("|x| > R", beyondR, 2*NormCDF(-zigR))

			slices.Sort(ks)
			d := 0.0
			for i, x := range ks {
				f := NormCDF(x)
				d = max(d, f-float64(i)/nKS, float64(i+1)/nKS-f)
			}
			if s := math.Sqrt(nKS) * d; s > kCrit {
				t.Errorf("KS √n·D = %.3f over %d draws, critical %v", s, nKS, kCrit)
			}
		})
	}
}
