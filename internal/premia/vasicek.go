package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// The interest-rate asset class, reflecting Premia's recent addition of
// "various interest rate ... models and derivatives": the Vasicek
// short-rate model dr = a(b − r)dt + σᵣ dW, with zero-coupon bonds and
// European options on them.
const (
	// AssetRate is the interest-rate asset class.
	AssetRate = "rate"
	// ModelVasicek is the one-factor Gaussian short-rate model.
	ModelVasicek = "Vasicek1dim"
	// OptZCBond is the zero-coupon bond maturing at T (a "price the
	// discount curve" product; K is ignored).
	OptZCBond = "ZCBond"
	// OptZCCall is a European call with expiry T and strike K on a
	// zero-coupon bond maturing at S (parameter "S").
	OptZCCall = "ZCCall"
	// MethodCFVasicek prices both products in closed form (affine bond
	// price; Jamshidian's formula for the option).
	MethodCFVasicek = "CF_Vasicek"
	// MethodMCVasicek prices them by Monte Carlo over the exact
	// Ornstein–Uhlenbeck transition with trapezoidal discounting.
	MethodMCVasicek = "MC_Vasicek"
)

// vasicekParams are the short-rate dynamics parameters.
type vasicekParams struct {
	R0, A, B, SigmaR float64
}

func vasicekFrom(p *Problem) (vasicekParams, error) {
	var m vasicekParams
	var err error
	if m.A, err = p.Params.NeedPositive("a"); err != nil {
		return m, err
	}
	if m.SigmaR, err = p.Params.NeedPositive("sigmaR"); err != nil {
		return m, err
	}
	m.R0 = p.Params.Get("r0", 0.03)
	m.B = p.Params.Get("b", 0.05)
	return m, nil
}

// vasicekBond returns the time-0 price P(0,τ) of a zero-coupon bond.
func vasicekBond(m vasicekParams, tau float64) float64 {
	bf := (1 - math.Exp(-m.A*tau)) / m.A
	lnA := (bf-tau)*(m.A*m.A*m.B-0.5*m.SigmaR*m.SigmaR)/(m.A*m.A) -
		m.SigmaR*m.SigmaR*bf*bf/(4*m.A)
	return math.Exp(lnA - bf*m.R0)
}

// cfVasicek implements CF_Vasicek.
func cfVasicek(p *Problem) (Result, error) {
	m, err := vasicekFrom(p)
	if err != nil {
		return Result{}, err
	}
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Result{}, err
	}
	switch p.Option {
	case OptZCBond:
		return Result{Price: vasicekBond(m, t), Work: 1}, nil
	case OptZCCall:
		s, err := p.Params.NeedPositive("S")
		if err != nil {
			return Result{}, err
		}
		if s <= t {
			return Result{}, fmt.Errorf("premia: ZCCall needs bond maturity S > option expiry T")
		}
		k, err := p.Params.NeedPositive("K")
		if err != nil {
			return Result{}, err
		}
		pt := vasicekBond(m, t)
		ps := vasicekBond(m, s)
		// Jamshidian: the bond price at T is lognormal with volatility σp.
		sigP := m.SigmaR / m.A * (1 - math.Exp(-m.A*(s-t))) *
			math.Sqrt((1-math.Exp(-2*m.A*t))/(2*m.A))
		d1 := math.Log(ps/(k*pt))/sigP + sigP/2
		d2 := d1 - sigP
		price := ps*mathutil.NormCDF(d1) - k*pt*mathutil.NormCDF(d2)
		return Result{Price: price, Work: 1}, nil
	}
	return Result{}, fmt.Errorf("premia: CF_Vasicek does not price %q", p.Option)
}

// mcVasicek implements MC_Vasicek: the short rate follows the exact OU
// transition on a fine grid; the money-market discount uses trapezoidal
// integration of the rate path, on the multicore pricing kernel.
// Parameters: "paths", "mcsteps", "threads".
func mcVasicek(p *Problem) (Result, error) {
	m, err := vasicekFrom(p)
	if err != nil {
		return Result{}, err
	}
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	steps, err := p.Params.size("mcsteps", mcDefaultSteps)
	if err != nil {
		return Result{}, err
	}
	if paths < 2 || steps < 1 {
		return Result{}, fmt.Errorf("premia: MC_Vasicek needs paths >= 2 and mcsteps >= 1")
	}
	var s, k float64
	isCall := p.Option == OptZCCall
	if isCall {
		if s, err = p.Params.NeedPositive("S"); err != nil {
			return Result{}, err
		}
		if s <= t {
			return Result{}, fmt.Errorf("premia: ZCCall needs S > T")
		}
		if k, err = p.Params.NeedPositive("K"); err != nil {
			return Result{}, err
		}
	} else if p.Option != OptZCBond {
		return Result{}, fmt.Errorf("premia: MC_Vasicek does not price %q", p.Option)
	}

	dt := t / float64(steps)
	ea := math.Exp(-m.A * dt)
	sd := m.SigmaR * math.Sqrt((1-ea*ea)/(2*m.A)) // exact OU step stdev
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
		for i := 0; i < n; i++ {
			r := m.R0
			integral := 0.0
			for kk := 0; kk < steps; kk++ {
				rNext := m.B + (r-m.B)*ea + sd*rng.Norm()
				integral += 0.5 * (r + rNext) * dt
				r = rNext
			}
			pay := 1.0
			if isCall {
				// Bond price at T for the remaining maturity S−T,
				// conditional on r_T, is the Vasicek affine formula with
				// r0 = r_T.
				mT := m
				mT.R0 = r
				pay = payoffCall(vasicekBond(mT, s-t), k)
			}
			accs[0].Add(math.Exp(-integral) * pay)
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Price: accs[0].Mean(), PriceCI: accs[0].HalfWidth95(),
		Work: float64(paths) * float64(steps),
	}, nil
}
