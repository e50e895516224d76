package premia

import (
	"math"
	"testing"
	"testing/quick"
)

// bsProblem builds a standard one-dimensional Black–Scholes problem.
func bsProblem(option, method string, k, t float64) *Problem {
	return New().
		SetModel(ModelBS1D).SetOption(option).SetMethod(method).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0.02).Set("sigma", 0.25).
		Set("K", k).Set("T", t)
}

func TestCFCallKnownValue(t *testing.T) {
	// Hull-style reference: S=100, K=100, r=5%, q=2%, σ=25%, T=1.
	// Computed independently: d1 = (0.03 + 0.03125)/0.25 = 0.245,
	// C = 100·e^{-0.02}·N(0.245) − 100·e^{-0.05}·N(−0.005).
	p := bsProblem(OptCallEuro, MethodCFCall, 100, 1)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	d1 := 0.245
	d2 := -0.005
	want := 100*math.Exp(-0.02)*0.5*math.Erfc(-d1/math.Sqrt2) - 100*math.Exp(-0.05)*0.5*math.Erfc(-d2/math.Sqrt2)
	if math.Abs(res.Price-want) > 1e-10 {
		t.Errorf("CF call = %.12f, want %.12f", res.Price, want)
	}
	if !res.HasDelta || res.Delta <= 0 || res.Delta >= 1 {
		t.Errorf("call delta = %v, want in (0,1)", res.Delta)
	}
}

func TestCFPutCallParity(t *testing.T) {
	f := func(kSeed, tSeed uint16) bool {
		k := 50 + float64(kSeed%1000)/10 // strikes in [50, 150)
		tt := 0.1 + float64(tSeed%80)/10 // maturities in [0.1, 8.1)
		call, err := bsProblem(OptCallEuro, MethodCFCall, k, tt).Compute()
		if err != nil {
			return false
		}
		put, err := bsProblem(OptPutEuro, MethodCFPut, k, tt).Compute()
		if err != nil {
			return false
		}
		// C − P = S e^{-qT} − K e^{-rT}
		want := 100*math.Exp(-0.02*tt) - k*math.Exp(-0.05*tt)
		if math.Abs(call.Price-put.Price-want) > 1e-9 {
			return false
		}
		// Delta parity: Δc − Δp = e^{-qT}
		return math.Abs(call.Delta-put.Delta-math.Exp(-0.02*tt)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCFCallBounds(t *testing.T) {
	// Arbitrage bounds: max(S e^{-qT} − K e^{-rT}, 0) ≤ C ≤ S e^{-qT}.
	f := func(kSeed, tSeed uint16) bool {
		k := 20 + float64(kSeed%2000)/10
		tt := 0.05 + float64(tSeed%100)/10
		res, err := bsProblem(OptCallEuro, MethodCFCall, k, tt).Compute()
		if err != nil {
			return false
		}
		lower := math.Max(100*math.Exp(-0.02*tt)-k*math.Exp(-0.05*tt), 0)
		upper := 100 * math.Exp(-0.02*tt)
		return res.Price >= lower-1e-12 && res.Price <= upper+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCFCallMonotoneInStrike(t *testing.T) {
	prev := math.Inf(1)
	for k := 60.0; k <= 140; k += 2 {
		res, err := bsProblem(OptCallEuro, MethodCFCall, k, 1).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if res.Price > prev+1e-12 {
			t.Fatalf("call price increased with strike at K=%v", k)
		}
		prev = res.Price
	}
}

func barrierProblem(method string, k, t, l float64) *Problem {
	p := bsProblem(OptCallDownOut, method, k, t)
	p.Set("L", l)
	return p
}

func TestBarrierDegenerateCases(t *testing.T) {
	// Barrier far below spot: the down-and-out call tends to the vanilla.
	res, err := barrierProblem(MethodCFCallDownOut, 100, 1, 1e-6).Compute()
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-vanilla.Price) > 1e-6 {
		t.Errorf("far barrier: %v, vanilla %v", res.Price, vanilla.Price)
	}
	// Spot at the barrier: knocked out, price = discounted rebate (0).
	ko, err := barrierProblem(MethodCFCallDownOut, 100, 1, 100).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if ko.Price != 0 {
		t.Errorf("knocked-out price = %v, want 0", ko.Price)
	}
}

func TestBarrierBelowVanilla(t *testing.T) {
	// A down-and-out call is worth at most the vanilla call and is
	// monotone in the barrier level.
	vanilla, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	prev := vanilla.Price
	for _, l := range []float64{50, 70, 80, 90, 95, 99} {
		res, err := barrierProblem(MethodCFCallDownOut, 100, 1, l).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if res.Price > vanilla.Price+1e-10 {
			t.Errorf("L=%v: barrier %v above vanilla %v", l, res.Price, vanilla.Price)
		}
		if res.Price > prev+1e-10 {
			t.Errorf("L=%v: price %v not decreasing in barrier (prev %v)", l, res.Price, prev)
		}
		prev = res.Price
	}
}

func TestBarrierBothBranches(t *testing.T) {
	// L < K and L > K exercise the two Reiner–Rubinstein branches. Both
	// must be continuous at L = K.
	below, err := barrierProblem(MethodCFCallDownOut, 90, 1, 90-1e-7).Compute()
	if err != nil {
		t.Fatal(err)
	}
	above, err := barrierProblem(MethodCFCallDownOut, 90, 1, 90+1e-7).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(below.Price-above.Price) > 1e-3 {
		t.Errorf("discontinuity at L=K: %v vs %v", below.Price, above.Price)
	}
}

func TestBarrierRebate(t *testing.T) {
	// A positive rebate increases the price; at L >= S0 the price is the
	// discounted rebate exactly.
	base, err := barrierProblem(MethodCFCallDownOut, 100, 1, 90).Compute()
	if err != nil {
		t.Fatal(err)
	}
	withRebate, err := barrierProblem(MethodCFCallDownOut, 100, 1, 90).Set("rebate", 5).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if withRebate.Price <= base.Price {
		t.Errorf("rebate did not increase price: %v <= %v", withRebate.Price, base.Price)
	}
	ko, err := barrierProblem(MethodCFCallDownOut, 100, 1, 120).Set("rebate", 5).Compute()
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * math.Exp(-0.05)
	if math.Abs(ko.Price-want) > 1e-12 {
		t.Errorf("knocked-out rebate = %v, want %v", ko.Price, want)
	}
}

func hestonProblem(option, method string) *Problem {
	return New().
		SetModel(ModelHeston).SetOption(option).SetMethod(method).
		Set("S0", 100).Set("r", 0.03).Set("divid", 0).
		Set("V0", 0.04).Set("kappa", 2).Set("theta", 0.04).
		Set("sigmaV", 0.3).Set("rhoSV", -0.7).
		Set("K", 100).Set("T", 1)
}

func TestHestonCFDegeneratesToBS(t *testing.T) {
	// With σᵥ→0 and V0=θ the variance is frozen at θ: Heston must agree
	// with Black–Scholes at σ = √θ.
	p := hestonProblem(OptCallEuro, MethodCFHeston)
	p.Set("sigmaV", 1e-6).Set("kappa", 1).Set("V0", 0.04).Set("theta", 0.04)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	bs := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.03).Set("sigma", 0.2).Set("K", 100).Set("T", 1)
	want, err := bs.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-want.Price) > 1e-4 {
		t.Errorf("Heston σᵥ→0 = %v, BS = %v", res.Price, want.Price)
	}
}

func TestHestonPutCallParity(t *testing.T) {
	call, err := hestonProblem(OptCallEuro, MethodCFHeston).Compute()
	if err != nil {
		t.Fatal(err)
	}
	put, err := hestonProblem(OptPutEuro, MethodCFHeston).Compute()
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 - 100*math.Exp(-0.03)
	if math.Abs(call.Price-put.Price-want) > 1e-8 {
		t.Errorf("parity violated: C-P = %v, want %v", call.Price-put.Price, want)
	}
}

func TestHestonCFAgainstMC(t *testing.T) {
	cf, err := hestonProblem(OptCallEuro, MethodCFHeston).Compute()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := hestonProblem(OptCallEuro, MethodMCHeston).
		Set("paths", 40000).Set("mcsteps", 100).Compute()
	if err != nil {
		t.Fatal(err)
	}
	// Allow 4 standard errors plus discretisation slack.
	tol := 4*mc.PriceCI/1.96 + 0.05
	if math.Abs(cf.Price-mc.Price) > tol {
		t.Errorf("Heston CF %v vs MC %v ± %v", cf.Price, mc.Price, mc.PriceCI)
	}
}

func TestHestonCFPositive(t *testing.T) {
	res, err := hestonProblem(OptCallEuro, MethodCFHeston).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Price <= 0 || res.Price >= 100 {
		t.Errorf("Heston call price out of bounds: %v", res.Price)
	}
	if res.Delta <= 0 || res.Delta >= 1 {
		t.Errorf("Heston call delta out of bounds: %v", res.Delta)
	}
}

func upBarrierProblem(method string, k, t, u float64) *Problem {
	p := bsProblem(OptCallUpOut, method, k, t)
	p.Set("U", u)
	return p
}

func TestUpOutDegenerateCases(t *testing.T) {
	// Barrier far above spot: tends to the vanilla call.
	far, err := upBarrierProblem(MethodCFCallUpOut, 100, 1, 1e6).Compute()
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(far.Price-vanilla.Price) > 1e-6 {
		t.Errorf("far barrier %v vs vanilla %v", far.Price, vanilla.Price)
	}
	// Barrier at or below the strike: worthless (in-the-money requires
	// crossing the barrier).
	dead, err := upBarrierProblem(MethodCFCallUpOut, 120, 1, 110).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if dead.Price != 0 {
		t.Errorf("U<=K price %v, want 0", dead.Price)
	}
	// Spot at the barrier: knocked out, discounted rebate.
	ko, err := upBarrierProblem(MethodCFCallUpOut, 90, 1, 100).Set("rebate", 3).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ko.Price-3*math.Exp(-0.05)) > 1e-12 {
		t.Errorf("knocked-out rebate %v", ko.Price)
	}
}

func TestUpOutMonotoneInBarrier(t *testing.T) {
	vanilla, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, u := range []float64{105, 115, 130, 160, 250} {
		res, err := upBarrierProblem(MethodCFCallUpOut, 100, 1, u).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if res.Price < prev-1e-10 {
			t.Errorf("U=%v: price %v not increasing (prev %v)", u, res.Price, prev)
		}
		if res.Price > vanilla.Price+1e-10 {
			t.Errorf("U=%v: price %v above vanilla %v", u, res.Price, vanilla.Price)
		}
		prev = res.Price
	}
}

func TestUpOutCFAgainstMC(t *testing.T) {
	cf, err := upBarrierProblem(MethodCFCallUpOut, 100, 1, 130).Compute()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := upBarrierProblem(MethodMCEuro, 100, 1, 130).
		Set("paths", 100000).Set("mcsteps", 50).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(cf.Price - mc.Price); diff > 4*mc.PriceCI+0.03 {
		t.Errorf("up-out CF %v vs MC %v ± %v", cf.Price, mc.Price, mc.PriceCI)
	}
}

func TestUpOutPlusUpInEqualsVanilla(t *testing.T) {
	// In-out parity through the hit probability identity is implicit in
	// the construction; verify the complementary structure via rebate = 0:
	// upOutCall + upInCall(=C−upOut) = C by definition, so instead assert
	// the hit probability is within [0,1] and increasing in maturity.
	m := bsParams{S0: 100, R: 0.03, Div: 0.01, Sigma: 0.25}
	prev := 0.0
	for _, tt := range []float64{0.1, 0.5, 1, 2, 5} {
		pr := hitProbability(m, tt, 130, true)
		if pr < prev-1e-12 || pr < 0 || pr > 1 {
			t.Fatalf("hit prob %v at T=%v (prev %v)", pr, tt, prev)
		}
		prev = pr
	}
}
