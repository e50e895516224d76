package premia

import (
	"fmt"
	"math"

	"riskbench/internal/mathutil"
)

// Additional exotic option names.
const (
	// OptDigitalCall is a cash-or-nothing call paying 1 if S_T > K.
	OptDigitalCall = "DigitalCall"
	// OptDigitalPut is a cash-or-nothing put paying 1 if S_T < K.
	OptDigitalPut = "DigitalPut"
	// OptAsianCallFix is an arithmetic-average-price call,
	// payoff (Ā − K)⁺ with Ā the average of discrete fixings.
	OptAsianCallFix = "AsianCallFix"
	// OptAsianPutFix is the arithmetic-average-price put (K − Ā)⁺.
	OptAsianPutFix = "AsianPutFix"
	// OptLookbackCallFloat is a floating-strike lookback call paying
	// S_T − min_{t≤T} S_t.
	OptLookbackCallFloat = "LookbackCallFloat"
)

// Exotic method names.
const (
	// MethodCFDigital prices digitals by the closed formula.
	MethodCFDigital = "CF_Digital"
	// MethodMCAsianCV prices arithmetic Asians by Monte Carlo with the
	// closed-form geometric Asian as control variate (Kemna–Vorst).
	MethodMCAsianCV = "MC_Asian_ControlVariate"
	// MethodCFLookback prices the floating-strike lookback call by the
	// Goldman–Sosin–Gatto formula.
	MethodCFLookback = "CF_Lookback"
	// MethodMCLookback prices it by Monte Carlo with exact
	// Brownian-bridge sampling of the continuous minimum.
	MethodMCLookback = "MC_Lookback"
)

// cfDigital implements CF_Digital: the cash-or-nothing price
// e^{-rT}·N(±d2) and its delta.
func cfDigital(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	_, d2 := bsD1D2(m, o.K, o.T)
	df := math.Exp(-m.R * o.T)
	st := m.Sigma * math.Sqrt(o.T)
	var price, delta float64
	switch p.Option {
	case OptDigitalCall:
		price = df * mathutil.NormCDF(d2)
		delta = df * mathutil.NormPDF(d2) / (m.S0 * st)
	case OptDigitalPut:
		price = df * mathutil.NormCDF(-d2)
		delta = -df * mathutil.NormPDF(d2) / (m.S0 * st)
	default:
		return Result{}, fmt.Errorf("premia: CF_Digital does not price %q", p.Option)
	}
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 1}, nil
}

// geomAsianCF prices the *geometric*-average Asian call/put over n
// equally spaced fixings t_i = iT/n in closed form: the geometric mean is
// lognormal with adjusted drift and volatility.
func geomAsianCF(m bsParams, k, t float64, n int, call bool) float64 {
	fn := float64(n)
	// Mean and variance of (1/n)Σ ln S_{t_i}.
	mu := math.Log(m.S0) + (m.R-m.Div-0.5*m.Sigma*m.Sigma)*t*(fn+1)/(2*fn)
	v := m.Sigma * m.Sigma * t * (fn + 1) * (2*fn + 1) / (6 * fn * fn)
	sv := math.Sqrt(v)
	df := math.Exp(-m.R * t)
	d1 := (mu - math.Log(k) + v) / sv
	d2 := d1 - sv
	fwd := math.Exp(mu + 0.5*v)
	if call {
		return df * (fwd*mathutil.NormCDF(d1) - k*mathutil.NormCDF(d2))
	}
	return df * (k*mathutil.NormCDF(-d2) - fwd*mathutil.NormCDF(-d1))
}

// mcAsianCV implements MC_Asian_ControlVariate: arithmetic-average Asian
// options under Black–Scholes via Monte Carlo over discrete fixings, with
// the geometric-average payoff (whose expectation is known in closed
// form) as control variate — the Kemna–Vorst construction. Paths run on
// the multicore pricing kernel and are streamed: the control coefficient
// is fitted on every path from three running variances. Parameters:
// "paths", "fixings" (default 12), "threads".
func mcAsianCV(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	o, err := vanillaFrom(p)
	if err != nil {
		return Result{}, err
	}
	paths := p.Params.Int("paths", mcDefaultPaths)
	fixings, err := p.Params.size("fixings", 12)
	if err != nil {
		return Result{}, err
	}
	if paths < 2 || fixings < 1 {
		return Result{}, fmt.Errorf("premia: MC_Asian needs paths >= 2 and fixings >= 1")
	}
	isCall := p.Option == OptAsianCallFix
	dt := o.T / float64(fixings)
	drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * dt
	vol := m.Sigma * math.Sqrt(dt)
	df := math.Exp(-m.R * o.T)
	// Each path adds its arithmetic payoff a, its geometric payoff g and
	// a−g, whose variances give Cov(a, g) without storing a path.
	accs, err := runPathKernel(p, paths, 3, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
		for i := 0; i < n; i++ {
			x, sum, logSum := math.Log(m.S0), 0.0, 0.0
			for k := 0; k < fixings; k++ {
				x += drift + vol*rng.Norm()
				sum += math.Exp(x)
				logSum += x
			}
			pa := df * vanillaPayoff(isCall, sum/float64(fixings), o.K)
			pg := df * vanillaPayoff(isCall, math.Exp(logSum/float64(fixings)), o.K)
			accs[0].Add(pa)
			accs[1].Add(pg)
			accs[2].Add(pa - pg)
		}
	})
	if err != nil {
		return Result{}, err
	}
	varA, varG := accs[0].Variance(), accs[1].Variance()
	cov := (varA + varG - accs[2].Variance()) / 2
	beta := 1.0
	if varG > 0 {
		beta = cov / varG
	}
	geomPrice := geomAsianCF(m, o.K, o.T, fixings, isCall)
	varAdj := max(varA+beta*beta*varG-2*beta*cov, 0)
	return Result{
		Price:   accs[0].Mean() - beta*(accs[1].Mean()-geomPrice),
		PriceCI: 1.959963984540054 * math.Sqrt(varAdj/float64(paths)), // as Welford.HalfWidth95
		Work:    float64(paths) * float64(fixings),
	}, nil
}

// cfLookback implements CF_Lookback: the Goldman–Sosin–Gatto price of a
// floating-strike lookback call, S_T − min S_t, for a continuously
// monitored minimum starting at S0.
func cfLookback(p *Problem) (Result, error) {
	m, err := bsFrom(p)
	if err != nil {
		return Result{}, err
	}
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return Result{}, err
	}
	if m.R == m.Div {
		return Result{}, fmt.Errorf("premia: CF_Lookback needs r != divid (zero carry degenerates the formula)")
	}
	sig2 := m.Sigma * m.Sigma
	b := m.R - m.Div
	st := m.Sigma * math.Sqrt(t)
	// Minimum observed so far = S0 at inception.
	a1 := (b + 0.5*sig2) * t / st
	a2 := a1 - st
	dq := math.Exp(-m.Div * t)
	df := math.Exp(-m.R * t)
	// Goldman–Sosin–Gatto with the running minimum at inception (M = S0),
	// using −a1 + 2b√T/σ = a2:
	//   S0·e^{-qT}·N(a1) − S0·e^{-rT}·N(a2)
	//   + S0·(σ²/2b)·( e^{-rT}·N(a2) − e^{-qT}·N(−a1) ).
	price := m.S0*dq*mathutil.NormCDF(a1) - m.S0*df*mathutil.NormCDF(a2) +
		m.S0*sig2/(2*b)*(df*mathutil.NormCDF(a2)-dq*mathutil.NormCDF(-a1))
	return Result{Price: price, HasDelta: false, Work: 1}, nil
}

// mcLookback implements MC_Lookback: Monte Carlo for the floating-strike
// lookback call with the running minimum sampled *exactly* between grid
// points through the Brownian-bridge minimum law, removing the
// discrete-monitoring bias. Paths run on the multicore pricing kernel.
// Parameters: "paths", "mcsteps", "threads".
func mcLookback(p *Problem) (Result, error) {
	m, err := bsFrom(p)
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
		return Result{}, fmt.Errorf("premia: MC_Lookback needs paths >= 2 and mcsteps >= 1")
	}
	dt := t / float64(steps)
	drift := (m.R - m.Div - 0.5*m.Sigma*m.Sigma) * dt
	vol := m.Sigma * math.Sqrt(dt)
	sig2dt := m.Sigma * m.Sigma * dt
	df := math.Exp(-m.R * t)
	accs, err := runPathKernel(p, paths, 1, func(rng *mathutil.RNG, n int, accs []mathutil.Welford, _ *kernelScratch) {
		for i := 0; i < n; i++ {
			x := math.Log(m.S0)
			minX := x
			for k := 0; k < steps; k++ {
				xNext := x + drift + vol*rng.Norm()
				// Exact minimum of the bridge between x and xNext:
				// m = (x + x' − sqrt((x'−x)² − 2σ²dt·lnU)) / 2.
				u := rng.Float64Open()
				diff := xNext - x
				minX = min(minX, 0.5*(x+xNext-math.Sqrt(diff*diff-2*sig2dt*math.Log(u))))
				x = xNext
			}
			accs[0].Add(df * (math.Exp(x) - math.Exp(minX)))
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
