package mathutil

import (
	"errors"
	"math"
)

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite within numerical tolerance.
var ErrNotSPD = errors.New("mathutil: matrix is not symmetric positive definite")

// Cholesky computes the lower-triangular factor L of the symmetric
// positive-definite n×n matrix A (row-major, length n*n) such that
// A = L Lᵀ. The result is written into l (which may alias a); entries above
// the diagonal of l are zeroed.
func Cholesky(a []float64, n int, l []float64) error {
	if len(a) < n*n || len(l) < n*n {
		panic("mathutil: Cholesky length mismatch")
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return ErrNotSPD
				}
				l[i*n+j] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return nil
}

// CorrelationMatrix builds the n×n matrix with 1 on the diagonal and rho
// everywhere else, the standard single-factor correlation structure used
// for equity baskets. It panics if rho is outside (-1/(n-1), 1].
func CorrelationMatrix(n int, rho float64) []float64 {
	if n > 1 && (rho <= -1.0/float64(n-1) || rho > 1) {
		panic("mathutil: correlation out of admissible range")
	}
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m[i*n+j] = 1
			} else {
				m[i*n+j] = rho
			}
		}
	}
	return m
}

// MatVecLower computes dst = L v for a lower-triangular row-major n×n
// matrix L, exploiting the triangular structure. dst must not alias v.
func MatVecLower(l []float64, n int, v, dst []float64) {
	if len(l) < n*n || len(v) < n || len(dst) < n {
		panic("mathutil: MatVecLower length mismatch")
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		row := l[i*n : i*n+i+1]
		for k, lik := range row {
			sum += lik * v[k]
		}
		dst[i] = sum
	}
}

// EquiFactor is the Cholesky factor L of CorrelationMatrix(d, rho), kept
// in O(d): its diagonal and one entry per column below it. Cholesky
// computes every below-diagonal entry of column j from the same operands
// — rho, the entries of earlier columns (each constant by the same
// argument) and L[j][j] — so each such column is one float64 repeated.
type EquiFactor struct {
	diag []float64 // L[i][i]
	col  []float64 // L[k][i] for every k > i
}

// NewEquiFactor factors CorrelationMatrix(d, rho) with Cholesky, so it
// panics and fails exactly where those two do.
func NewEquiFactor(d int, rho float64) (EquiFactor, error) {
	l := CorrelationMatrix(d, rho)
	if err := Cholesky(l, d, l); err != nil {
		return EquiFactor{}, err
	}
	buf := make([]float64, 2*d)
	f := EquiFactor{diag: buf[:d], col: buf[d:]}
	for i := 0; i < d; i++ {
		f.diag[i] = l[i*d+i]
		if i+1 < d {
			f.col[i] = l[(i+1)*d+i]
		}
	}
	return f, nil
}

// Mul computes dst = L v in O(d). Row i of L v is the running sum of
// col[k]·v[k] over k < i plus diag[i]·v[i]: the same additions in the
// same order as MatVecLower over the full factor, so the result is bit
// for bit the same. dst may alias v.
func (f EquiFactor) Mul(v, dst []float64) {
	d := len(f.diag)
	if len(v) < d || len(dst) < d {
		panic("mathutil: EquiFactor.Mul length mismatch")
	}
	s := 0.0
	for i, di := range f.diag {
		vi := v[i]
		dst[i] = s + di*vi
		s += f.col[i] * vi
	}
}

// SolveSPD solves A x = rhs for a symmetric positive-definite matrix A
// (row-major n×n) by Cholesky factorisation. x may alias rhs. It allocates
// one n×n scratch factor.
func SolveSPD(a []float64, n int, rhs, x []float64) error {
	l := make([]float64, n*n)
	if err := Cholesky(a, n, l); err != nil {
		return err
	}
	// Forward substitution: L y = rhs.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := rhs[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Backward substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return nil
}
