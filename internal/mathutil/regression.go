package mathutil

// PolyBasis evaluates the monomial basis {1, x, x², …, x^(deg)} at x into
// dst, which must have length deg+1. Monomials up to degree 3 are what the
// Longstaff–Schwartz pricer uses for one-dimensional regressions.
func PolyBasis(x float64, dst []float64) {
	dst[0] = 1
	for i := 1; i < len(dst); i++ {
		dst[i] = dst[i-1] * x
	}
}

// LeastSquares fits coefficients beta minimising ‖X beta − y‖² where X is
// the design matrix with rows basis(x_i). rows is the number of samples,
// cols the number of basis functions; x is row-major rows×cols. The normal
// equations are solved by Cholesky with a tiny ridge term for numerical
// safety on degenerate designs. beta must have length cols. Only beta is
// written: x and y are read, never modified, so a caller may reuse the
// design rows after the fit.
func LeastSquares(x []float64, rows, cols int, y, beta []float64) error {
	if len(x) < rows*cols || len(y) < rows || len(beta) < cols {
		panic("mathutil: LeastSquares length mismatch")
	}
	xtx := make([]float64, cols*cols)
	xty := make([]float64, cols)
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		yr := y[r]
		for i := 0; i < cols; i++ {
			xi := row[i]
			xty[i] += xi * yr
			base := i * cols
			for j := i; j < cols; j++ {
				xtx[base+j] += xi * row[j]
			}
		}
	}
	// Symmetrise and regularise.
	const ridge = 1e-12
	for i := 0; i < cols; i++ {
		xtx[i*cols+i] += ridge * (1 + xtx[i*cols+i])
		for j := 0; j < i; j++ {
			xtx[i*cols+j] = xtx[j*cols+i]
		}
	}
	return SolveSPD(xtx, cols, xty, beta)
}
