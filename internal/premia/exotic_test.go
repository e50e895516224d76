package premia

import (
	"math"
	"testing"

	"riskbench/internal/mathutil"
)

func mertonProblem(option, method string) *Problem {
	return New().
		SetModel(ModelMerton).SetOption(option).SetMethod(method).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0.01).Set("sigma", 0.2).
		Set("lambda", 0.8).Set("muJ", -0.1).Set("sigmaJ", 0.25).
		Set("K", 100).Set("T", 1)
}

func TestMertonDegeneratesToBS(t *testing.T) {
	// λ→0 (no jumps): Merton must equal Black–Scholes.
	p := mertonProblem(OptCallEuro, MethodCFMerton).Set("lambda", 1e-12)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0.01).Set("sigma", 0.2).
		Set("K", 100).Set("T", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-bs.Price) > 1e-8 {
		t.Errorf("Merton λ→0 = %v, BS = %v", res.Price, bs.Price)
	}
}

func TestMertonJumpsRaiseOTMPrices(t *testing.T) {
	// Jump risk fattens the tails: OTM options are worth more than under
	// pure Black–Scholes with the same diffusion volatility.
	merton, err := mertonProblem(OptPutEuro, MethodCFMerton).Set("K", 70).Compute()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := New().SetModel(ModelBS1D).SetOption(OptPutEuro).SetMethod(MethodCFPut).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0.01).Set("sigma", 0.2).
		Set("K", 70).Set("T", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if merton.Price <= bs.Price {
		t.Errorf("Merton OTM put %v not above BS %v", merton.Price, bs.Price)
	}
}

func TestMertonPutCallParity(t *testing.T) {
	call, err := mertonProblem(OptCallEuro, MethodCFMerton).Compute()
	if err != nil {
		t.Fatal(err)
	}
	put, err := mertonProblem(OptPutEuro, MethodCFMerton).Compute()
	if err != nil {
		t.Fatal(err)
	}
	want := 100*math.Exp(-0.01) - 100*math.Exp(-0.05)
	if math.Abs(call.Price-put.Price-want) > 1e-8 {
		t.Errorf("Merton parity: C-P = %v, want %v", call.Price-put.Price, want)
	}
}

func TestMertonCFAgainstMC(t *testing.T) {
	cf, err := mertonProblem(OptCallEuro, MethodCFMerton).Compute()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := mertonProblem(OptCallEuro, MethodMCMerton).Set("paths", 200000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(cf.Price - mc.Price); diff > 3*mc.PriceCI {
		t.Errorf("Merton CF %v vs MC %v ± %v", cf.Price, mc.Price, mc.PriceCI)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := mathutil.NewRNG(5)
	for _, mean := range []float64{0.3, 2, 8, 25, 50} {
		var w mathutil.Welford
		for i := 0; i < 50000; i++ {
			w.Add(float64(poisson(rng, mean)))
		}
		if math.Abs(w.Mean()-mean) > 0.05*mean+0.05 {
			t.Errorf("λ=%v: mean %v", mean, w.Mean())
		}
		if math.Abs(w.Variance()-mean) > 0.1*mean+0.1 {
			t.Errorf("λ=%v: variance %v", mean, w.Variance())
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestDigitalKnownValueAndBounds(t *testing.T) {
	// Digital call + digital put = discounted bond.
	call, err := bsProblem(OptDigitalCall, MethodCFDigital, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	put, err := bsProblem(OptDigitalPut, MethodCFDigital, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	df := math.Exp(-0.05)
	if math.Abs(call.Price+put.Price-df) > 1e-12 {
		t.Errorf("digital parity: %v + %v != %v", call.Price, put.Price, df)
	}
	if call.Price <= 0 || call.Price >= df {
		t.Errorf("digital call %v outside (0, %v)", call.Price, df)
	}
	if call.Delta <= 0 {
		t.Errorf("digital call delta %v not positive", call.Delta)
	}
}

func TestDigitalIsStrikeDerivativeOfCall(t *testing.T) {
	// e^{-rT}·N(d2) = −∂C/∂K: check against a finite difference of the
	// vanilla closed form.
	digital, err := bsProblem(OptDigitalCall, MethodCFDigital, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-4
	up, err := bsProblem(OptCallEuro, MethodCFCall, 100+h, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	dn, err := bsProblem(OptCallEuro, MethodCFCall, 100-h, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	want := -(up.Price - dn.Price) / (2 * h)
	if math.Abs(digital.Price-want) > 1e-6 {
		t.Errorf("digital %v vs -dC/dK %v", digital.Price, want)
	}
}

func asianProblem(option string) *Problem {
	return New().
		SetModel(ModelBS1D).SetOption(option).SetMethod(MethodMCAsianCV).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0).Set("sigma", 0.25).
		Set("K", 100).Set("T", 1).Set("fixings", 12)
}

func TestAsianBelowVanilla(t *testing.T) {
	// Averaging reduces volatility: the Asian call is cheaper than the
	// European call with the same strike.
	asian, err := asianProblem(OptAsianCallFix).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).Set("K", 100).Set("T", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if asian.Price >= vanilla.Price {
		t.Errorf("Asian %v not below vanilla %v", asian.Price, vanilla.Price)
	}
	if asian.Price <= 0 {
		t.Errorf("Asian price %v not positive", asian.Price)
	}
}

func TestAsianAboveGeometric(t *testing.T) {
	// Arithmetic mean ≥ geometric mean ⇒ arithmetic Asian call ≥
	// geometric Asian call.
	asian, err := asianProblem(OptAsianCallFix).Set("paths", 100000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	m := bsParams{S0: 100, R: 0.05, Div: 0, Sigma: 0.25}
	geo := geomAsianCF(m, 100, 1, 12, true)
	if asian.Price < geo-3*asian.PriceCI {
		t.Errorf("arithmetic Asian %v below geometric %v", asian.Price, geo)
	}
	// And close: the gap is typically a small fraction of the price.
	if asian.Price > geo*1.1 {
		t.Errorf("arithmetic Asian %v implausibly far above geometric %v", asian.Price, geo)
	}
}

func TestAsianControlVariateReducesVariance(t *testing.T) {
	// The reported CI with the control variate must be far smaller than
	// the plain arithmetic estimator's CI at the same path count.
	p := asianProblem(OptAsianCallFix).Set("paths", 20000)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	// Plain-MC standard error of the arithmetic payoff is ~W/√n where the
	// payoff stdev is a few units of currency; the CV typically cuts the
	// CI by an order of magnitude.
	if res.PriceCI > 0.02 {
		t.Errorf("control-variate CI %v too wide (variance reduction failed?)", res.PriceCI)
	}
	if res.PriceCI <= 0 {
		t.Error("no CI reported")
	}
}

// asianPayoffs simulates n paths of asianProblem's call on a stream of
// its own and returns each path's discounted arithmetic and geometric
// payoffs.
func asianPayoffs(n int, seed uint64) (arith, geom []float64) {
	const s0, r, sigma, k, fixings = 100.0, 0.05, 0.25, 100.0, 12
	rng := mathutil.NewRNG(seed)
	dt := 1.0 / fixings
	df := math.Exp(-r)
	for i := 0; i < n; i++ {
		x, sum, logSum := math.Log(s0), 0.0, 0.0
		for j := 0; j < fixings; j++ {
			x += (r-0.5*sigma*sigma)*dt + sigma*math.Sqrt(dt)*rng.Norm()
			sum += math.Exp(x)
			logSum += x
		}
		arith = append(arith, df*payoffCall(sum/fixings, k))
		geom = append(geom, df*payoffCall(math.Exp(logSum/fixings), k))
	}
	return arith, geom
}

// TestAsianControlVariatePinned pins the one-pass control variate
// against estimators built here from stored paths: its half-width is a
// small fraction of the plain arithmetic one and within a quarter of the
// two-pass control variate's, and its price agrees with a high-path plain
// arithmetic estimate within their combined interval.
func TestAsianControlVariatePinned(t *testing.T) {
	const paths = 20000
	cv, err := asianProblem(OptAsianCallFix).Set("paths", paths).Compute()
	if err != nil {
		t.Fatal(err)
	}
	arith, geom := asianPayoffs(paths, 7)
	geomPrice := geomAsianCF(bsParams{S0: 100, R: 0.05, Sigma: 0.25}, 100, 1, 12, true)
	var plain, plainG mathutil.Welford
	for i := range arith {
		plain.Add(arith[i])
		plainG.Add(geom[i])
	}
	cov := 0.0
	for i := range arith {
		cov += (arith[i] - plain.Mean()) * (geom[i] - plainG.Mean())
	}
	beta := cov / float64(paths-1) / plainG.Variance()
	var controlled mathutil.Welford
	for i := range arith {
		controlled.Add(arith[i] - beta*(geom[i]-geomPrice))
	}
	if cv.PriceCI <= 0 || cv.PriceCI > plain.HalfWidth95()/5 {
		t.Errorf("control-variate half-width %v, plain arithmetic %v", cv.PriceCI, plain.HalfWidth95())
	}
	if ratio := cv.PriceCI / controlled.HalfWidth95(); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("control-variate half-width %v, two-pass %v (β %v)", cv.PriceCI, controlled.HalfWidth95(), beta)
	}
	high, _ := asianPayoffs(400000, 11)
	var ref mathutil.Welford
	for _, a := range high {
		ref.Add(a)
	}
	if diff := math.Abs(cv.Price - ref.Mean()); diff > cv.PriceCI+ref.HalfWidth95() {
		t.Errorf("control variate %v ± %v vs plain %v ± %v", cv.Price, cv.PriceCI, ref.Mean(), ref.HalfWidth95())
	}
}

func TestAsianPut(t *testing.T) {
	res, err := asianProblem(OptAsianPutFix).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	m := bsParams{S0: 100, R: 0.05, Div: 0, Sigma: 0.25}
	geo := geomAsianCF(m, 100, 1, 12, false)
	// Arithmetic mean ≥ geometric mean ⇒ the *put* ordering reverses:
	// (K−Ā)⁺ ≤ (K−G)⁺ pathwise.
	if res.Price > geo+3*res.PriceCI+1e-9 {
		t.Errorf("arithmetic Asian put %v above geometric %v", res.Price, geo)
	}
	if res.Price <= 0 {
		t.Errorf("Asian put price %v not positive", res.Price)
	}
}

func TestGeomAsianManyFixingsConverges(t *testing.T) {
	// As n→∞ the discrete geometric Asian approaches the continuous one
	// (σ/√3 volatility, known drift): sanity-check monotone convergence.
	m := bsParams{S0: 100, R: 0.05, Div: 0, Sigma: 0.3}
	// The averaging variance (n+1)(2n+1)/6n² decreases in n, so the call
	// value decreases monotonically toward the continuous limit.
	prev := geomAsianCF(m, 100, 1, 4, true)
	for _, n := range []int{16, 64, 256, 1024} {
		cur := geomAsianCF(m, 100, 1, n, true)
		if cur > prev+1e-12 {
			t.Fatalf("geometric Asian increased from %v to %v at n=%d", prev, cur, n)
		}
		prev = cur
	}
	// Continuous limit: effective vol σ√(1/3), effective carry
	// (r − σ²/6)/2 … just check the n=1024 value is within a few cents of
	// n=4096.
	if math.Abs(geomAsianCF(m, 100, 1, 4096, true)-prev) > 0.01 {
		t.Error("geometric Asian not converging in the number of fixings")
	}
}

func TestLookbackCFAgainstMC(t *testing.T) {
	cf, err := bsProblem(OptLookbackCallFloat, MethodCFLookback, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := bsProblem(OptLookbackCallFloat, MethodMCLookback, 100, 1).
		Set("paths", 60000).Set("mcsteps", 64).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(cf.Price - mc.Price); diff > 4*mc.PriceCI+0.05 {
		t.Errorf("lookback CF %v vs bridge-MC %v ± %v", cf.Price, mc.Price, mc.PriceCI)
	}
}

func TestLookbackDominatesATMCall(t *testing.T) {
	// S_T − min S ≥ (S_T − S_0)⁺, so the lookback is worth at least the
	// at-the-money vanilla call.
	lb, err := bsProblem(OptLookbackCallFloat, MethodCFLookback, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	atm, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if lb.Price <= atm.Price {
		t.Errorf("lookback %v not above ATM call %v", lb.Price, atm.Price)
	}
}

func TestLookbackRejectsZeroCarry(t *testing.T) {
	p := bsProblem(OptLookbackCallFloat, MethodCFLookback, 100, 1).
		Set("r", 0.02).Set("divid", 0.02)
	if _, err := p.Compute(); err == nil {
		t.Fatal("zero-carry lookback accepted (formula degenerates)")
	}
}

func TestExoticRegistryEntries(t *testing.T) {
	for _, m := range []string{MethodCFMerton, MethodMCMerton, MethodCFDigital, MethodMCAsianCV, MethodCFLookback, MethodMCLookback} {
		models, options := Compatibles(m)
		if len(models) == 0 || len(options) == 0 {
			t.Errorf("method %s not registered", m)
		}
	}
	if !MethodSupports(MethodCFMerton, ModelMerton, OptPutEuro) {
		t.Error("CF_Merton should price Merton puts")
	}
	if MethodSupports(MethodCFMerton, ModelBS1D, OptPutEuro) {
		t.Error("CF_Merton should not price BS puts")
	}
}

func TestQMCBasketMatchesMC(t *testing.T) {
	base := func(method string) *Problem {
		return New().
			SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(method).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).
			Set("dim", 10).Set("rho", 0.3).Set("K", 100).Set("T", 1)
	}
	mc, err := base(MethodMCBasket).Set("paths", 200000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := base(MethodQMCBasket).Set("paths", 32768).Set("rotations", 8).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(mc.Price - qmc.Price); diff > 3*(mc.PriceCI+qmc.PriceCI)+0.02 {
		t.Errorf("QMC %v ± %v vs MC %v ± %v", qmc.Price, qmc.PriceCI, mc.Price, mc.PriceCI)
	}
}

func TestQMCBasketDim1MatchesCF(t *testing.T) {
	cf, err := New().SetModel(ModelBS1D).SetOption(OptPutEuro).SetMethod(MethodCFPut).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).Set("K", 100).Set("T", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := New().
		SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(MethodQMCBasket).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).
		Set("dim", 1).Set("K", 100).Set("T", 1).
		Set("paths", 65536).Set("rotations", 8).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(cf.Price - qmc.Price); diff > 0.02 {
		t.Errorf("QMC dim-1 %v vs CF %v (diff %v)", qmc.Price, cf.Price, diff)
	}
}

func TestQMCTighterThanMCAtSameBudget(t *testing.T) {
	// The headline property: at equal path budgets the randomized-QMC CI
	// is materially tighter than the MC CI for a smooth 5-d payoff.
	base := func(method string) *Problem {
		return New().
			SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(method).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).
			Set("dim", 5).Set("rho", 0.3).Set("K", 100).Set("T", 1).
			Set("paths", 32768)
	}
	mc, err := base(MethodMCBasket).Compute()
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := base(MethodQMCBasket).Set("rotations", 8).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if qmc.PriceCI >= mc.PriceCI {
		t.Errorf("QMC CI %v not tighter than MC CI %v", qmc.PriceCI, mc.PriceCI)
	}
}

func TestQMCRejectsHugeDim(t *testing.T) {
	p := New().SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(MethodQMCBasket).
		Set("S0", 100).Set("sigma", 0.2).Set("dim", 100).Set("K", 100).Set("T", 1)
	if _, err := p.Compute(); err == nil {
		t.Fatal("dim 100 accepted beyond the Halton table")
	}
}
