package mathutil

import "errors"

// ErrSingular is returned by the linear solvers when a pivot vanishes.
var ErrSingular = errors.New("mathutil: singular system")

// Tridiag is a tridiagonal matrix tridiag(a, b, c) eliminated by the
// Thomas algorithm once, so that each right-hand side costs one forward
// and one backward sweep: O(n), stable for the diagonally dominant
// systems of the Crank–Nicolson pricers. The sub-diagonal a[1..n-1],
// diagonal b[0..n-1] and super-diagonal c[0..n-2] each have length n; a[0]
// and c[n-1] are ignored. The pivots are stored, not their reciprocals, so
// a solve divides exactly as an unfactored Thomas sweep would.
type Tridiag struct {
	a, mul, pivot []float64 // mul[i] = c[i]/pivot[i]
}

// Factor eliminates tridiag(a, b, c) in place: b becomes the pivots and c
// the multipliers, and t keeps all three, which must not change while t
// is in use. It returns ErrSingular when a pivot vanishes; b and c then
// hold part of an elimination, and t solves nothing until a later Factor
// succeeds.
func (t *Tridiag) Factor(a, b, c []float64) error {
	n := len(b)
	if len(a) != n || len(c) != n {
		panic("mathutil: Tridiag.Factor length mismatch")
	}
	*t = Tridiag{}
	if n > 0 && b[0] == 0 {
		return ErrSingular
	}
	for i := 1; i < n; i++ {
		c[i-1] /= b[i-1]
		b[i] -= a[i] * c[i-1]
		if b[i] == 0 {
			return ErrSingular
		}
	}
	*t = Tridiag{a: a, mul: c, pivot: b}
	return nil
}

// Solve writes into x (which may alias d) the solution of t's matrix
// times x = d.
func (t *Tridiag) Solve(d, x []float64) {
	n := len(t.pivot)
	if len(d) != n || len(x) < n {
		panic("mathutil: Tridiag.Solve length mismatch")
	}
	if n == 0 {
		return
	}
	a, mul, pivot := t.a, t.mul, t.pivot
	x[0] = d[0] / pivot[0]
	for i := 1; i < n; i++ {
		x[i] = (d[i] - a[i]*x[i-1]) / pivot[i]
	}
	for i := n - 2; i >= 0; i-- {
		x[i] -= mul[i] * x[i+1]
	}
}

// TridiagBS is tridiag(a, b, c), laid out as for Tridiag, eliminated for
// the Brennan–Schwartz solve of an obstacle problem: the result satisfies
// x[i] >= psi[i] for all i. This is the standard direct method for
// American option PDEs when the exercise region is connected (true for
// vanilla puts). The super-diagonal is eliminated from the top (i = n-1
// downward) so the projecting substitution runs upward from i = 0, the
// deep-in-the-money end of a put, where the obstacle binds first. Pivots
// are stored, not their reciprocals.
type TridiagBS struct {
	a, mul, pivot []float64 // mul[i] = c[i]/pivot[i+1]
}

// Factor eliminates tridiag(a, b, c) in place, as Tridiag.Factor does,
// from the bottom row up.
func (t *TridiagBS) Factor(a, b, c []float64) error {
	n := len(b)
	if len(a) != n || len(c) != n {
		panic("mathutil: TridiagBS.Factor length mismatch")
	}
	*t = TridiagBS{}
	for i := n - 2; i >= 0; i-- {
		if b[i+1] == 0 {
			return ErrSingular
		}
		c[i] /= b[i+1]
		b[i] -= c[i] * a[i+1]
	}
	if n > 0 && b[0] == 0 {
		return ErrSingular
	}
	*t = TridiagBS{a: a, mul: c, pivot: b}
	return nil
}

// Solve writes into x (which may alias d) the solution of the obstacle
// problem of t's matrix, right-hand side d and obstacle psi.
func (t *TridiagBS) Solve(d, psi, x []float64) {
	n := len(t.pivot)
	if len(d) != n || len(psi) != n || len(x) < n {
		panic("mathutil: TridiagBS.Solve length mismatch")
	}
	if n == 0 {
		return
	}
	a, mul, bp := t.a, t.mul, t.pivot
	dp := x // x holds the transformed right-hand side until overwritten
	dp[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		dp[i] = d[i] - mul[i]*dp[i+1]
	}
	x[0] = dp[0] / bp[0]
	if x[0] < psi[0] {
		x[0] = psi[0]
	}
	for i := 1; i < n; i++ {
		x[i] = (dp[i] - a[i]*x[i-1]) / bp[i]
		if x[i] < psi[i] {
			x[i] = psi[i]
		}
	}
}

// PSOR solves the linear complementarity problem
//
//	M x >= d,  x >= psi,  (Mx - d)'(x - psi) = 0
//
// for the tridiagonal matrix M = tridiag(a, b, c) using projected SOR with
// relaxation factor omega, starting from the initial guess already in x.
// It returns the number of iterations performed, or an error if tol is not
// reached within maxIter sweeps.
func PSOR(a, b, c, d, psi, x []float64, omega, tol float64, maxIter int) (int, error) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n || len(psi) != n || len(x) != n {
		panic("mathutil: PSOR length mismatch")
	}
	for iter := 1; iter <= maxIter; iter++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			sum := d[i]
			if i > 0 {
				sum -= a[i] * x[i-1]
			}
			if i < n-1 {
				sum -= c[i] * x[i+1]
			}
			if b[i] == 0 {
				return iter, ErrSingular
			}
			gs := sum / b[i]
			xn := x[i] + omega*(gs-x[i])
			if xn < psi[i] {
				xn = psi[i]
			}
			delta := xn - x[i]
			if delta < 0 {
				delta = -delta
			}
			if delta > maxDelta {
				maxDelta = delta
			}
			x[i] = xn
		}
		if maxDelta < tol {
			return iter, nil
		}
	}
	return maxIter, errors.New("mathutil: PSOR did not converge")
}
