package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// The credit asset class, reflecting Premia's addition of "credit risk
// models and derivatives": a reduced-form constant-intensity default
// model with defaultable zero-coupon bonds and credit default swaps.
const (
	// AssetCredit is the credit asset class.
	AssetCredit = "credit"
	// ModelConstHazard is the reduced-form model with constant default
	// intensity "lambda" and recovery rate "recovery" ∈ [0,1).
	ModelConstHazard = "ConstantIntensity1dim"
	// OptDefaultableBond is a zero-coupon bond of maturity T paying 1 at
	// T if no default, and the recovery fraction at T otherwise.
	OptDefaultableBond = "DefaultableBond"
	// OptCDS is a credit default swap of maturity T with quarterly
	// premium payments; its "price" is the par spread (per year).
	OptCDS = "CDS"
	// MethodCFCredit prices both in closed form.
	MethodCFCredit = "CF_Credit"
	// MethodMCCredit prices both by simulating exponential default times.
	MethodMCCredit = "MC_Credit"
)

// creditParams are the reduced-form model parameters.
type creditParams struct {
	Lambda, Recovery, R float64
}

func creditFrom(p *Problem) (creditParams, error) {
	var m creditParams
	var err error
	if m.Lambda, err = p.Params.NeedPositive("lambda"); err != nil {
		return m, err
	}
	m.Recovery = p.Params.Get("recovery", 0.4)
	if m.Recovery < 0 || m.Recovery >= 1 {
		return m, fmt.Errorf("premia: recovery %v outside [0,1)", m.Recovery)
	}
	m.R = p.Params.Get("r", 0)
	return m, nil
}

// cdsLegs returns the protection leg PV and the risky annuity (premium
// leg PV per unit of spread) for quarterly premiums over maturity t.
func cdsLegs(m creditParams, t float64) (protection, annuity float64) {
	// Protection: (1−R)·∫₀ᵀ λ e^{-(r+λ)s} ds, default compensated at the
	// default time.
	u := m.R + m.Lambda
	protection = (1 - m.Recovery) * m.Lambda / u * (1 - math.Exp(-u*t))
	// Premium: quarterly accrual paid at each t_i if no default by t_i.
	n, dt := cdsDates(t)
	for i := 1; i <= n; i++ {
		ti := float64(i) * dt
		annuity += dt * math.Exp(-u*ti)
	}
	return protection, annuity
}

// cdsDates are the quarterly premium dates of a CDS of maturity t: n of
// them, dt apart.
func cdsDates(t float64) (n int, dt float64) {
	n = max(int(t*4+0.5), 1)
	return n, t / float64(n)
}

// cfCredit implements CF_Credit.
func cfCredit(p *Problem) (Result, error) {
	m, err := creditFrom(p)
	if err != nil {
		return Result{}, err
	}
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Result{}, err
	}
	switch p.Option {
	case OptDefaultableBond:
		survival := math.Exp(-m.Lambda * t)
		price := math.Exp(-m.R*t) * (survival + m.Recovery*(1-survival))
		return Result{Price: price, Work: 1}, nil
	case OptCDS:
		protection, annuity := cdsLegs(m, t)
		return Result{Price: protection / annuity, Work: 1}, nil
	}
	return Result{}, fmt.Errorf("premia: CF_Credit does not price %q", p.Option)
}

// mcCredit implements MC_Credit by drawing exponential default times on
// the multicore pricing kernel. Parameters: "paths", "threads".
func mcCredit(p *Problem) (Result, error) {
	m, err := creditFrom(p)
	if err != nil {
		return Result{}, err
	}
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	if paths < 2 {
		return Result{}, fmt.Errorf("premia: MC_Credit needs paths >= 2")
	}
	// legs maps a default time to what one path pays: the bond's value,
	// or the CDS's protection and premium-annuity legs.
	var legs func(tau float64) (float64, float64)
	switch p.Option {
	case OptDefaultableBond:
		df := math.Exp(-m.R * t)
		legs = func(tau float64) (float64, float64) {
			if tau > t {
				return df, 0
			}
			return df * m.Recovery, 0
		}
	case OptCDS:
		n, dt := cdsDates(t)
		legs = func(tau float64) (prot, annu float64) {
			if tau <= t {
				prot = (1 - m.Recovery) * math.Exp(-m.R*tau)
			}
			for k := 1; k <= n; k++ {
				if ti := float64(k) * dt; tau > ti {
					annu += dt * math.Exp(-m.R*ti)
				}
			}
			return prot, annu
		}
	default:
		return Result{}, fmt.Errorf("premia: MC_Credit does not price %q", p.Option)
	}
	accs, err := runPathKernel(p, paths, 2, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
		for i := 0; i < n; i++ {
			a, b := legs(-math.Log(rng.Float64Open()) / m.Lambda)
			accs[0].Add(a)
			accs[1].Add(b)
		}
	})
	if err != nil {
		return Result{}, err
	}
	prot, annu := accs[0], accs[1]
	if p.Option == OptDefaultableBond {
		return Result{Price: prot.Mean(), PriceCI: prot.HalfWidth95(), Work: float64(paths)}, nil
	}
	// The par spread is the ratio of the legs; its CI is reported
	// approximately through the protection leg's relative error.
	if annu.Mean() <= 0 {
		return Result{}, fmt.Errorf("premia: MC_Credit degenerate annuity")
	}
	spread := prot.Mean() / annu.Mean()
	relErr := 0.0
	if prot.Mean() > 0 {
		relErr = prot.HalfWidth95() / prot.Mean()
	}
	return Result{Price: spread, PriceCI: spread * relErr, Work: float64(paths)}, nil
}
