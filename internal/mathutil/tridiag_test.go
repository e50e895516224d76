package mathutil

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// applyTridiag computes y = M x for M = tridiag(a, b, c).
func applyTridiag(a, b, c, x []float64) []float64 {
	n := len(b)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[i] * x[i]
		if i > 0 {
			y[i] += a[i] * x[i-1]
		}
		if i < n-1 {
			y[i] += c[i] * x[i+1]
		}
	}
	return y
}

func randomDominantSystem(r *RNG, n int) (a, b, c, x []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	x = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() - 0.5
		c[i] = r.Float64() - 0.5
		b[i] = 2 + r.Float64() // diagonally dominant
		x[i] = 2*r.Float64() - 1
	}
	return
}

// solveTridiag factors a copy of tridiag(a, b, c) and solves it against
// d into x.
func solveTridiag(a, b, c, d, x []float64) error {
	var f Tridiag
	if err := f.Factor(a, slices.Clone(b), slices.Clone(c)); err != nil {
		return err
	}
	f.Solve(d, x)
	return nil
}

// solveTridiagBS factors a copy of tridiag(a, b, c) for Brennan–Schwartz
// and solves the obstacle problem of d and psi into x.
func solveTridiagBS(a, b, c, d, psi, x []float64) error {
	var f TridiagBS
	if err := f.Factor(a, slices.Clone(b), slices.Clone(c)); err != nil {
		return err
	}
	f.Solve(d, psi, x)
	return nil
}

func TestSolveTridiagRecoversSolution(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{1, 2, 3, 10, 100, 999} {
		a, b, c, want := randomDominantSystem(r, n)
		d := applyTridiag(a, b, c, want)
		got := make([]float64, n)
		if err := solveTridiag(a, b, c, d, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestSolveTridiagEmpty(t *testing.T) {
	if err := solveTridiag(nil, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := solveTridiagBS(nil, nil, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTridiagSingular(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{0, 1}
	c := []float64{0, 0}
	d := []float64{1, 1}
	x := make([]float64, 2)
	if err := solveTridiag(a, b, c, d, x); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	// Brennan–Schwartz eliminates from the bottom: the zero is its last
	// pivot.
	if err := solveTridiagBS(a, b, c, d, make([]float64, 2), x); err != ErrSingular {
		t.Fatalf("Brennan–Schwartz: want ErrSingular, got %v", err)
	}
}

func TestSolveTridiagAliasD(t *testing.T) {
	r := NewRNG(2)
	n := 50
	a, b, c, want := randomDominantSystem(r, n)
	d := applyTridiag(a, b, c, want)
	dbs := append([]float64(nil), d...)
	if err := solveTridiag(a, b, c, d, d); err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, n)
	for i := range psi {
		psi[i] = -1e9 // never binds
	}
	if err := solveTridiagBS(a, b, c, dbs, psi, dbs); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-10 || math.Abs(dbs[i]-want[i]) > 1e-10 {
			t.Fatalf("aliased solve wrong at %d", i)
		}
	}
}

func TestBrennanSchwartzMatchesUnconstrainedWhenObstacleInactive(t *testing.T) {
	r := NewRNG(3)
	n := 80
	a, b, c, want := randomDominantSystem(r, n)
	d := applyTridiag(a, b, c, want)
	psi := make([]float64, n)
	for i := range psi {
		psi[i] = -1e9 // never binds
	}
	got := make([]float64, n)
	if err := solveTridiagBS(a, b, c, d, psi, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBrennanSchwartzRespectsObstacle(t *testing.T) {
	r := NewRNG(4)
	n := 60
	a, b, c, sol := randomDominantSystem(r, n)
	d := applyTridiag(a, b, c, sol)
	psi := make([]float64, n)
	for i := range psi {
		psi[i] = sol[i] + 0.5 // obstacle strictly above the free solution
	}
	got := make([]float64, n)
	if err := solveTridiagBS(a, b, c, d, psi, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] < psi[i]-1e-12 {
			t.Fatalf("obstacle violated at %d: %v < %v", i, got[i], psi[i])
		}
	}
}

func TestPSORSolvesLCP(t *testing.T) {
	r := NewRNG(5)
	n := 60
	a, b, c, sol := randomDominantSystem(r, n)
	// Make the matrix an M-matrix-like system (negative off-diagonals) as
	// produced by implicit finite differences, for PSOR convergence.
	for i := range a {
		a[i] = -math.Abs(a[i])
		c[i] = -math.Abs(c[i])
	}
	d := applyTridiag(a, b, c, sol)
	psi := make([]float64, n)
	for i := range psi {
		psi[i] = sol[i] - 1 // inactive obstacle: PSOR must reproduce sol
	}
	x := make([]float64, n)
	iters, err := PSOR(a, b, c, d, psi, x, 1.2, 1e-12, 10000)
	if err != nil {
		t.Fatalf("PSOR: %v after %d iters", err, iters)
	}
	for i := range sol {
		if math.Abs(x[i]-sol[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], sol[i])
		}
	}
}

func TestPSORAgainstBrennanSchwartz(t *testing.T) {
	// With an active obstacle on an M-matrix with connected contact set the
	// two methods must agree.
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	psi := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], c[i] = -1, -1
		b[i] = 2.5
		d[i] = 0.1
		// Decreasing obstacle: binds at the left end (like a put payoff).
		psi[i] = 1 - float64(i)/float64(n)
	}
	xbs := make([]float64, n)
	if err := solveTridiagBS(a, b, c, d, psi, xbs); err != nil {
		t.Fatal(err)
	}
	xp := make([]float64, n)
	copy(xp, psi)
	if _, err := PSOR(a, b, c, d, psi, xp, 1.3, 1e-13, 20000); err != nil {
		t.Fatal(err)
	}
	for i := range xbs {
		if math.Abs(xbs[i]-xp[i]) > 1e-7 {
			t.Fatalf("mismatch at %d: BS=%v PSOR=%v", i, xbs[i], xp[i])
		}
	}
}

// thomasRef is the unfactored Thomas sweep that Tridiag replaced, kept as
// the reference its factored form must match bit for bit: it eliminates
// and substitutes in one pass per system.
func thomasRef(a, b, c, d, x, scratch []float64) error {
	n := len(b)
	if n == 0 {
		return nil
	}
	cp := scratch
	beta := b[0]
	if beta == 0 {
		return ErrSingular
	}
	x[0] = d[0] / beta
	for i := 1; i < n; i++ {
		cp[i] = c[i-1] / beta
		beta = b[i] - a[i]*cp[i]
		if beta == 0 {
			return ErrSingular
		}
		x[i] = (d[i] - a[i]*x[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		x[i] -= cp[i+1] * x[i+1]
	}
	return nil
}

// brennanSchwartzRef is the unfactored Brennan–Schwartz solve that
// TridiagBS replaced, kept as its bit-for-bit reference.
func brennanSchwartzRef(a, b, c, d, psi, x, scratch []float64) error {
	n := len(b)
	if n == 0 {
		return nil
	}
	bp := scratch
	dp := x
	bp[n-1] = b[n-1]
	dp[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		if bp[i+1] == 0 {
			return ErrSingular
		}
		m := c[i] / bp[i+1]
		bp[i] = b[i] - m*a[i+1]
		dp[i] = d[i] - m*dp[i+1]
	}
	if bp[0] == 0 {
		return ErrSingular
	}
	x[0] = dp[0] / bp[0]
	if x[0] < psi[0] {
		x[0] = psi[0]
	}
	for i := 1; i < n; i++ {
		if bp[i] == 0 {
			return ErrSingular
		}
		x[i] = (dp[i] - a[i]*x[i-1]) / bp[i]
		if x[i] < psi[i] {
			x[i] = psi[i]
		}
	}
	return nil
}

// pdeMatrix is the interior step matrix of premia's Crank–Nicolson
// pricers at theta on n interior nodes: the Black–Scholes operator in
// ln S with volatility sigma, rate r and dividend q, node spacing dx and
// time step dt.
func pdeMatrix(theta, sigma, r, q, dx, dt float64, n int) (a, b, c []float64) {
	sig2 := sigma * sigma
	mu := r - q - 0.5*sig2
	alpha := 0.5*sig2/(dx*dx) - mu/(2*dx)
	beta := -sig2/(dx*dx) - r
	gamma := 0.5*sig2/(dx*dx) + mu/(2*dx)
	a, b, c = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		a[i] = -theta * dt * alpha
		b[i] = 1 - theta*dt*beta
		c[i] = -theta * dt * gamma
	}
	return a, b, c
}

// TestFactoredTridiagMatchesThomas holds Tridiag and TridiagBS, each
// factored once and then solved against several right-hand sides, to the
// bits of the one-pass sweeps they replaced: on random diagonally
// dominant systems, on the PDE pricers' step matrices at both thetas (one
// value refactored from the implicit to the Crank–Nicolson matrix, as a
// run does), and on small-integer systems where pivots vanish exactly,
// where both must refuse the same systems with ErrSingular, and a value
// refused solves nothing.
func TestFactoredTridiagMatchesThomas(t *testing.T) {
	var thomas Tridiag
	var bs TridiagBS
	// check compares both factored forms with their references on every
	// right-hand side, and reports whether either refused the matrix.
	check := func(name string, a, b, c []float64, rhs, psi [][]float64) (refused bool) {
		t.Helper()
		n := len(b)
		scratch, want, got := make([]float64, n), make([]float64, n), make([]float64, n)
		errT := thomas.Factor(a, slices.Clone(b), slices.Clone(c))
		errBS := bs.Factor(a, slices.Clone(b), slices.Clone(c))
		for k, d := range rhs {
			refT := thomasRef(a, b, c, d, want, scratch)
			if refT != errT || (errT != nil) != (thomas.pivot == nil) {
				t.Fatalf("%s: Thomas refuses with %v, Tridiag.Factor with %v, keeping %d pivots", name, refT, errT, len(thomas.pivot))
			}
			if errT == nil {
				thomas.Solve(d, got)
				if !sameBits(got, want) {
					t.Fatalf("%s rhs %d: Tridiag solves\n%v\nThomas\n%v", name, k, got, want)
				}
			}
			refBS := brennanSchwartzRef(a, b, c, d, psi[k], want, scratch)
			if refBS != errBS || (errBS != nil) != (bs.pivot == nil) {
				t.Fatalf("%s: Brennan–Schwartz refuses with %v, TridiagBS.Factor with %v, keeping %d pivots", name, refBS, errBS, len(bs.pivot))
			}
			if errBS == nil {
				bs.Solve(d, psi[k], got)
				if !sameBits(got, want) {
					t.Fatalf("%s rhs %d: TridiagBS solves\n%v\nBrennan–Schwartz\n%v", name, k, got, want)
				}
			}
		}
		return errT != nil || errBS != nil
	}
	r := NewRNG(47)
	rhsOf := func(n, k int) (rhs, psi [][]float64) {
		for range k {
			d, p := make([]float64, n), make([]float64, n)
			for i := range d {
				d[i] = 4*r.Float64() - 2
				p[i] = r.Float64() - 0.75 // binds at some nodes, not at others
			}
			rhs, psi = append(rhs, d), append(psi, p)
		}
		return rhs, psi
	}
	for _, n := range []int{1, 2, 3, 10, 100, 999} {
		a, b, c, _ := randomDominantSystem(r, n)
		rhs, psi := rhsOf(n, 4)
		check(fmt.Sprintf("dominant n=%d", n), a, b, c, rhs, psi)
	}
	// The realistic book's American put grid: 400 nodes over ±5σ√T about
	// ln S0, a step every two days over 4⅓ years. The right-hand sides are
	// a put's payoff and its obstacle.
	sigma, r0, q, years := 0.22, 0.045, 0.01, 1.0/3+0.25*16
	steps := int(years*182) + 1
	width := 5*sigma*math.Sqrt(years) + math.Abs(r0-q-0.5*sigma*sigma)*years
	dx, dt := 2*width/400, years/float64(steps)
	payoff := make([]float64, 399)
	for i := range payoff {
		payoff[i] = max(100-100*math.Exp(-width+float64(i+1)*dx), 0)
	}
	for _, theta := range []float64{1, 0.5} {
		a, b, c := pdeMatrix(theta, sigma, r0, q, dx, dt, len(payoff))
		rhs, psi := rhsOf(len(payoff), 2)
		rhs, psi = append(rhs, payoff), append(psi, payoff)
		check(fmt.Sprintf("PDE theta=%v", theta), a, b, c, rhs, psi)
	}
	singular := 0
	for trial := range 20000 {
		n := 1 + trial%6
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range b {
			a[i], b[i], c[i] = float64(int(r.Uint64()%5)-2), float64(int(r.Uint64()%5)-2), float64(int(r.Uint64()%5)-2)
		}
		rhs, psi := rhsOf(n, 1)
		if check(fmt.Sprintf("integer trial %d %v %v %v", trial, a, b, c), a, b, c, rhs, psi) {
			singular++
		}
	}
	if singular < 1000 {
		t.Errorf("only %d of the integer systems were singular: the refusals went untested", singular)
	}
}

// sameBits reports whether x and y hold the same float64 bits.
func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}
