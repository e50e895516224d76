package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// bsCallPrice returns the Black–Scholes price and delta of a European call.
func bsCallPrice(m bsParams, k, t float64) (price, delta float64) {
	d1, d2 := bsD1D2(m, k, t)
	df := math.Exp(-m.R * t)
	dq := math.Exp(-m.Div * t)
	price = m.S0*dq*mathutil.NormCDF(d1) - k*df*mathutil.NormCDF(d2)
	delta = dq * mathutil.NormCDF(d1)
	return price, delta
}

// bsPutPrice returns the Black–Scholes price and delta of a European put.
func bsPutPrice(m bsParams, k, t float64) (price, delta float64) {
	d1, d2 := bsD1D2(m, k, t)
	df := math.Exp(-m.R * t)
	dq := math.Exp(-m.Div * t)
	price = k*df*mathutil.NormCDF(-d2) - m.S0*dq*mathutil.NormCDF(-d1)
	delta = -dq * mathutil.NormCDF(-d1)
	return price, delta
}

func bsD1D2(m bsParams, k, t float64) (d1, d2 float64) {
	st := m.Sigma * math.Sqrt(t)
	d1 = (math.Log(m.S0/k) + (m.R-m.Div+0.5*m.Sigma*m.Sigma)*t) / st
	d2 = d1 - st
	return d1, d2
}

// vanillaNames are the parameters the vanilla closed formulas read,
// in the order they are validated; the vS0… constants index them.
var vanillaNames = [...]string{"S0", "sigma", "r", "divid", "K", "T"}

const vS0, vSigma, vR, vDiv, vK, vT = 0, 1, 2, 3, 4, 5

// vanilla is the one reader of CF_Call and CF_Put: the six parameters
// their formula reads, each with whether it is present (an absent one
// reads as zero). A problem is read into it once; a sweep cell sets its
// overrides on a copy, so a closed-form sweep reads the parameter table
// once rather than once per cell. An override of a parameter the record
// does not hold changes nothing, as it changes nothing in the formula.
type vanilla struct {
	v   [len(vanillaNames)]float64
	has [len(vanillaNames)]bool
}

func vanillaOf(p Params) (c vanilla) {
	for i, name := range vanillaNames {
		c.v[i], c.has[i] = p[name]
	}
	return c
}

func (c *vanilla) set(name string, v float64) {
	for i, n := range vanillaNames {
		if n == name {
			c.v[i], c.has[i] = v, true
			return
		}
	}
}

// bsFormula is bsCallPrice or bsPutPrice.
type bsFormula func(m bsParams, k, t float64) (price, delta float64)

// price validates the record as bsFrom and vanillaFrom validate a table
// — S0, sigma, K, T positive, in that order, r and divid defaulting to
// zero — and prices it by formula.
func (c *vanilla) price(formula bsFormula) (Result, error) {
	for _, i := range [...]int{vS0, vSigma, vK, vT} {
		if _, err := positive(vanillaNames[i], c.v[i], c.has[i]); err != nil {
			return Result{}, err
		}
	}
	m := bsParams{S0: c.v[vS0], R: c.v[vR], Div: c.v[vDiv], Sigma: c.v[vSigma]}
	price, delta := formula(m, c.v[vK], c.v[vT])
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 1}, nil
}

// vanillaSweep is the sweep form of a vanilla closed form: the base is
// read once, each cell prices a copy of the record with its overrides set.
func vanillaSweep(formula bsFormula) func(*Problem, [][]Override) ([]Result, []error) {
	return func(base *Problem, cells [][]Override) ([]Result, []error) {
		rec := vanillaOf(base.Params)
		results := make([]Result, len(cells))
		var errs []error
		for k, cell := range cells {
			c := rec
			for _, o := range cell {
				c.set(o.Param, o.Value)
			}
			res, err := c.price(formula)
			if err != nil {
				errs = cellFailed(errs, len(cells), k, err)
				continue
			}
			results[k] = res
		}
		return results, errs
	}
}

// cfCall implements the CF_Call method: the plain-vanilla closed formula,
// the "almost instantaneous" pricing of the paper's toy portfolio.
func cfCall(p *Problem) (Result, error) {
	c := vanillaOf(p.Params)
	return c.price(bsCallPrice)
}

// cfPut implements the CF_Put method.
func cfPut(p *Problem) (Result, error) {
	c := vanillaOf(p.Params)
	return c.price(bsPutPrice)
}

// cfCallDownOut implements the Reiner–Rubinstein closed formula for a
// down-and-out call with barrier L, covering both the L <= K and L > K
// branches. The rebate is assumed paid at expiry if the barrier is hit.
func cfCallDownOut(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := barrierFrom(p)
	if err != nil {
		return Result{}, err
	}
	if m.S0 <= o.L {
		// Spot already at or below the barrier: knocked out immediately.
		return Result{Price: o.Rebate * math.Exp(-m.R*o.T), Delta: 0, HasDelta: true, Work: 1}, nil
	}
	price := downOutCall(m, o.K, o.T, o.L)
	if o.Rebate != 0 {
		price += o.Rebate * math.Exp(-m.R*o.T) * downInProbability(m, o.T, o.L)
	}
	// Delta by central difference of the closed formula: still effectively
	// free and robust across both branches.
	const h = 1e-4
	up, dn := m, m
	up.S0 = m.S0 * (1 + h)
	dn.S0 = m.S0 * (1 - h)
	pu := downOutCall(up, o.K, o.T, o.L)
	pd := downOutCall(dn, o.K, o.T, o.L)
	delta := (pu - pd) / (2 * h * m.S0)
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 2}, nil
}

// downOutCall is the rebate-free Reiner–Rubinstein down-and-out call price
// for S0 > L.
func downOutCall(m bsParams, k, t, l float64) float64 {
	sig2 := m.Sigma * m.Sigma
	lambda := (m.R - m.Div + 0.5*sig2) / sig2
	st := m.Sigma * math.Sqrt(t)
	dq := math.Exp(-m.Div * t)
	df := math.Exp(-m.R * t)
	hs := l / m.S0
	if k >= l {
		// Down-and-in call for L <= K, subtracted from the vanilla.
		c, _ := bsCallPrice(m, k, t)
		y := math.Log(l*l/(m.S0*k))/st + lambda*st
		cdi := m.S0*dq*math.Pow(hs, 2*lambda)*mathutil.NormCDF(y) -
			k*df*math.Pow(hs, 2*lambda-2)*mathutil.NormCDF(y-st)
		v := c - cdi
		if v < 0 {
			return 0
		}
		return v
	}
	// L > K branch.
	x1 := math.Log(m.S0/l)/st + lambda*st
	y1 := math.Log(l/m.S0)/st + lambda*st
	v := m.S0*dq*mathutil.NormCDF(x1) - k*df*mathutil.NormCDF(x1-st) -
		m.S0*dq*math.Pow(hs, 2*lambda)*mathutil.NormCDF(y1) +
		k*df*math.Pow(hs, 2*lambda-2)*mathutil.NormCDF(y1-st)
	if v < 0 {
		return 0
	}
	return v
}

// downInProbability returns the risk-neutral probability that the barrier
// L is hit before t, used to value a rebate paid at expiry.
func downInProbability(m bsParams, t, l float64) float64 {
	if m.S0 <= l {
		return 1
	}
	mu := m.R - m.Div - 0.5*m.Sigma*m.Sigma
	st := m.Sigma * math.Sqrt(t)
	b := math.Log(l / m.S0) // negative
	return mathutil.NormCDF((b-mu*t)/st) + math.Exp(2*mu*b/(m.Sigma*m.Sigma))*mathutil.NormCDF((b+mu*t)/st)
}

// hestonQuadN is the number of Gauss–Legendre nodes of the Fourier
// inversion; 200 nodes on [0, 200] is ample for the benchmark's parameter
// ranges.
const (
	hestonQuadN  = 200
	hestonQuadUB = 200.0
)

// cfHeston prices European calls and puts in the Heston model by Fourier
// inversion with the Albrecher et al. "little trap" characteristic
// function (numerically stable branch of the complex logarithm).
func cfHeston(p *Problem) (Result, error) {
	m, err := hestonFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	nodes, weights := mathutil.GaussLegendre(hestonQuadN)
	lnK := math.Log(o.K)
	phi := func(u complex128) complex128 { return hestonCF(m, o.T, u) }
	fwdDF := math.Exp((m.R - m.Div) * o.T)
	integrand1 := func(u float64) float64 {
		cu := complex(u, 0)
		v := phi(cu-1i) / (1i * cu * complex(m.S0*fwdDF, 0))
		return real(v * cmplxExp(-1i*cu*complex(lnK, 0)))
	}
	integrand2 := func(u float64) float64 {
		cu := complex(u, 0)
		v := phi(cu) / (1i * cu)
		return real(v * cmplxExp(-1i*cu*complex(lnK, 0)))
	}
	p1 := 0.5 + mathutil.Integrate(integrand1, 1e-8, hestonQuadUB, nodes, weights)/math.Pi
	p2 := 0.5 + mathutil.Integrate(integrand2, 1e-8, hestonQuadUB, nodes, weights)/math.Pi
	call := m.S0*math.Exp(-m.Div*o.T)*p1 - o.K*math.Exp(-m.R*o.T)*p2
	delta := math.Exp(-m.Div*o.T) * p1
	price := call
	switch p.Option {
	case OptCallEuro:
	case OptPutEuro:
		// Put–call parity.
		price = call - m.S0*math.Exp(-m.Div*o.T) + o.K*math.Exp(-m.R*o.T)
		delta = delta - math.Exp(-m.Div*o.T)
	default:
		return Result{}, fmt.Errorf("premia: CF_Heston does not price %q", p.Option)
	}
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 2 * hestonQuadN}, nil
}

// hestonCF is the characteristic function E[exp(iu ln S_T)] in the
// little-trap parameterisation.
func hestonCF(m hestonParams, t float64, u complex128) complex128 {
	iu := 1i * u
	x0 := complex(math.Log(m.S0)+(m.R-m.Div)*t, 0)
	kappa := complex(m.Kappa, 0)
	theta := complex(m.Theta, 0)
	sig := complex(m.SigmaV, 0)
	rho := complex(m.Rho, 0)
	v0 := complex(m.V0, 0)

	d := cmplxSqrt((rho*sig*iu-kappa)*(rho*sig*iu-kappa) + sig*sig*(iu+u*u))
	g := (kappa - rho*sig*iu - d) / (kappa - rho*sig*iu + d)
	ct := complex(t, 0)
	eDT := cmplxExp(-d * ct)
	a := kappa * theta / (sig * sig) * ((kappa-rho*sig*iu-d)*ct - 2*cmplxLog((1-g*eDT)/(1-g)))
	b := v0 / (sig * sig) * (kappa - rho*sig*iu - d) * (1 - eDT) / (1 - g*eDT)
	return cmplxExp(iu*x0 + a + b)
}
