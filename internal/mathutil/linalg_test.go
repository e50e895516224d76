package mathutil

import (
	"math"
	"testing"
)

func TestCholeskyIdentity(t *testing.T) {
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	l := make([]float64, n*n)
	if err := Cholesky(a, n, l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		want := 0.0
		if i%n == i/n {
			want = 1
		}
		if math.Abs(l[i]-want) > 1e-15 {
			t.Fatalf("l[%d] = %v, want %v", i, l[i], want)
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	r := NewRNG(9)
	for _, n := range []int{1, 2, 3, 7, 15, 40} {
		// Build SPD matrix A = B Bᵀ + n I.
		b := make([]float64, n*n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b[i*n+k] * b[j*n+k]
				}
				a[i*n+j] = s
				if i == j {
					a[i*n+j] += float64(n)
				}
			}
		}
		l := make([]float64, n*n)
		if err := Cholesky(a, n, l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Check L Lᵀ = A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += l[i*n+k] * l[j*n+k]
				}
				if math.Abs(s-a[i*n+j]) > 1e-9*float64(n) {
					t.Fatalf("n=%d: (LLᵀ)[%d,%d]=%v want %v", n, i, j, s, a[i*n+j])
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3 and -1
	l := make([]float64, 4)
	if err := Cholesky(a, 2, l); err != ErrNotSPD {
		t.Fatalf("want ErrNotSPD, got %v", err)
	}
}

func TestCorrelationMatrixAndCholesky(t *testing.T) {
	for _, n := range []int{2, 7, 40} {
		m := CorrelationMatrix(n, 0.3)
		l := make([]float64, n*n)
		if err := Cholesky(m, n, l); err != nil {
			t.Fatalf("n=%d: correlation matrix not SPD: %v", n, err)
		}
		// Row norms of L must be 1 (unit variances).
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k <= i; k++ {
				s += l[i*n+k] * l[i*n+k]
			}
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("n=%d: row %d norm² = %v", n, i, s)
			}
		}
	}
}

func TestCorrelationMatrixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rho > 1")
		}
	}()
	CorrelationMatrix(3, 1.5)
}

func TestMatVecLower(t *testing.T) {
	// L = [[2,0],[3,4]]
	l := []float64{2, 0, 3, 4}
	v := []float64{1, 2}
	dst := make([]float64, 2)
	MatVecLower(l, 2, v, dst)
	if dst[0] != 2 || dst[1] != 11 {
		t.Fatalf("got %v, want [2 11]", dst)
	}
}

// TestEquiFactorMatchesMatVecLower holds EquiFactor.Mul to MatVecLower
// over the full Cholesky factor, bit for bit, across dimensions and the
// admissible correlations (-1/(d-1), 1), negatives included.
func TestEquiFactorMatchesMatVecLower(t *testing.T) {
	r := NewRNG(33)
	v := make([]float64, 64)
	want := make([]float64, 64)
	got := make([]float64, 64)
	for d := 1; d <= 64; d++ {
		lo := -1.0
		if d > 1 {
			lo = -1 / float64(d-1)
		}
		for _, frac := range []float64{0.01, 0.2, 0.45, 0.5, 0.55, 0.7, 0.9, 0.99} {
			rho := lo + (1-lo)*frac
			l := make([]float64, d*d)
			if err := Cholesky(CorrelationMatrix(d, rho), d, l); err != nil {
				t.Fatalf("d=%d rho=%v: %v", d, rho, err)
			}
			f, err := NewEquiFactor(d, rho)
			if err != nil {
				t.Fatalf("d=%d rho=%v: %v", d, rho, err)
			}
			for n := 0; n < 1000; n++ {
				r.NormVec(v[:d])
				MatVecLower(l, d, v[:d], want[:d])
				f.Mul(v[:d], got[:d])
				for i := 0; i < d; i++ {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("d=%d rho=%v row %d: Mul %v, MatVecLower %v", d, rho, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSolveSPD(t *testing.T) {
	r := NewRNG(21)
	n := 12
	b := make([]float64, n*n)
	for i := range b {
		b[i] = r.Float64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			a[i*n+j] = s
			if i == j {
				a[i*n+j] += 1
			}
		}
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = 2*r.Float64() - 1
	}
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rhs[i] += a[i*n+j] * want[j]
		}
	}
	got := make([]float64, n)
	if err := SolveSPD(a, n, rhs, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Fit a quadratic through points generated by 1 + 2x + 3x²: with a
	// 3-column monomial basis the fit must be exact.
	n := 50
	deg := 3
	x := make([]float64, n*deg)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := float64(i) / 10
		PolyBasis(xi, x[i*deg:(i+1)*deg])
		y[i] = 1 + 2*xi + 3*xi*xi
	}
	x0 := append([]float64(nil), x...)
	y0 := append([]float64(nil), y...)
	beta := make([]float64, deg)
	if err := LeastSquares(x, n, deg, y, beta); err != nil {
		t.Fatal(err)
	}
	// The LSM induction reads continuation values from the design rows
	// after the fit, so the inputs must come back untouched.
	for i := range x0 {
		if x[i] != x0[i] {
			t.Fatalf("LeastSquares modified x[%d]: %v -> %v", i, x0[i], x[i])
		}
	}
	for i := range y0 {
		if y[i] != y0[i] {
			t.Fatalf("LeastSquares modified y[%d]: %v -> %v", i, y0[i], y[i])
		}
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-6 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestPolyBasis(t *testing.T) {
	dst := make([]float64, 4)
	PolyBasis(2, dst)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("PolyBasis(2) = %v", dst)
		}
	}
}
