package premia

import (
	"math"
	"testing"
)

func TestAnalyticGreeksCall(t *testing.T) {
	p := bsProblem(OptCallEuro, MethodCFCall, 100, 1)
	g, err := ComputeGreeks(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Price-res.Price) > 1e-12 {
		t.Errorf("greeks price %v vs compute %v", g.Price, res.Price)
	}
	if math.Abs(g.Delta-res.Delta) > 1e-12 {
		t.Errorf("greeks delta %v vs compute %v", g.Delta, res.Delta)
	}
	if g.Gamma <= 0 {
		t.Errorf("gamma %v not positive", g.Gamma)
	}
	if g.Vega <= 0 {
		t.Errorf("vega %v not positive", g.Vega)
	}
	if g.Rho <= 0 {
		t.Errorf("call rho %v not positive", g.Rho)
	}
}

func TestAnalyticGreeksVsBumped(t *testing.T) {
	// The generic bump engine (forced by using the tree method) must match
	// the analytic formulas to finite-difference accuracy.
	an, err := ComputeGreeks(bsProblem(OptCallEuro, MethodCFCall, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	tree := bsProblem(OptCallEuro, MethodTreeCRR, 100, 1).Set("steps", 4000)
	bu, err := ComputeGreeks(tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.Delta-bu.Delta) > 0.005 {
		t.Errorf("delta: analytic %v vs bumped %v", an.Delta, bu.Delta)
	}
	if math.Abs(an.Gamma-bu.Gamma) > 0.01*an.Gamma+0.002 {
		t.Errorf("gamma: analytic %v vs bumped %v", an.Gamma, bu.Gamma)
	}
	if math.Abs(an.Vega-bu.Vega) > 0.02*an.Vega {
		t.Errorf("vega: analytic %v vs bumped %v", an.Vega, bu.Vega)
	}
	if math.Abs(an.Rho-bu.Rho) > 0.02*math.Abs(an.Rho) {
		t.Errorf("rho: analytic %v vs bumped %v", an.Rho, bu.Rho)
	}
	if math.Abs(an.Theta-bu.Theta) > 0.05*math.Abs(an.Theta) {
		t.Errorf("theta: analytic %v vs bumped %v", an.Theta, bu.Theta)
	}
}

func TestAnalyticGreeksParity(t *testing.T) {
	// Gamma and vega are identical for calls and puts; delta differs by
	// e^{-qT}; rho differs by -K T e^{-rT}.
	call, err := ComputeGreeks(bsProblem(OptCallEuro, MethodCFCall, 110, 2))
	if err != nil {
		t.Fatal(err)
	}
	put, err := ComputeGreeks(bsProblem(OptPutEuro, MethodCFPut, 110, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(call.Gamma-put.Gamma) > 1e-12 {
		t.Errorf("gamma parity: %v vs %v", call.Gamma, put.Gamma)
	}
	if math.Abs(call.Vega-put.Vega) > 1e-12 {
		t.Errorf("vega parity: %v vs %v", call.Vega, put.Vega)
	}
	wantDeltaDiff := math.Exp(-0.02 * 2)
	if math.Abs(call.Delta-put.Delta-wantDeltaDiff) > 1e-12 {
		t.Errorf("delta parity: %v - %v != %v", call.Delta, put.Delta, wantDeltaDiff)
	}
	wantRhoDiff := 110 * 2 * math.Exp(-0.05*2)
	if math.Abs(call.Rho-put.Rho-wantRhoDiff) > 1e-9 {
		t.Errorf("rho parity: diff %v, want %v", call.Rho-put.Rho, wantRhoDiff)
	}
}

func TestMCGreeksWithCommonRandomNumbers(t *testing.T) {
	// Bump-and-reprice on a Monte Carlo method: common random numbers make
	// the finite differences usable at moderate path counts.
	an, err := ComputeGreeks(bsProblem(OptCallEuro, MethodCFCall, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	mc := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 100000)
	bu, err := ComputeGreeks(mc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.Delta-bu.Delta) > 0.02 {
		t.Errorf("MC delta %v vs analytic %v", bu.Delta, an.Delta)
	}
	if math.Abs(an.Vega-bu.Vega) > 0.05*an.Vega+0.5 {
		t.Errorf("MC vega %v vs analytic %v", bu.Vega, an.Vega)
	}
}

func TestAmericanPutGreeks(t *testing.T) {
	p := bsProblem(OptPutAmer, MethodFDBS, 120, 1).Set("nodes", 400).Set("steps", 200)
	g, err := ComputeGreeks(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Delta >= 0 || g.Delta < -1 {
		t.Errorf("American put delta %v outside (-1, 0)", g.Delta)
	}
	if g.Gamma < 0 {
		t.Errorf("American put gamma %v negative", g.Gamma)
	}
	if g.Vega <= 0 {
		t.Errorf("American put vega %v not positive", g.Vega)
	}
	if g.Rho >= 0 {
		t.Errorf("American put rho %v not negative", g.Rho)
	}
}

func TestHestonGreeks(t *testing.T) {
	g, err := ComputeGreeks(hestonProblem(OptCallEuro, MethodCFHeston))
	if err != nil {
		t.Fatal(err)
	}
	if g.Delta <= 0 || g.Delta >= 1 {
		t.Errorf("Heston call delta %v", g.Delta)
	}
	if g.Vega <= 0 {
		t.Errorf("Heston vega %v not positive", g.Vega)
	}
	if g.Gamma <= 0 {
		t.Errorf("Heston gamma %v not positive", g.Gamma)
	}
}

func TestGreeksInvalidProblem(t *testing.T) {
	p := New().SetModel("NoSuchModel").SetOption(OptCallEuro).SetMethod(MethodCFCall)
	if _, err := ComputeGreeks(p); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestGreeksThetaShortMaturity(t *testing.T) {
	// Maturity shorter than the one-day time bump must not go negative.
	p := bsProblem(OptCallEuro, MethodTreeCRR, 100, 0.001).Set("steps", 50)
	g, err := ComputeGreeks(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(g.Theta) || math.IsInf(g.Theta, 0) {
		t.Fatalf("theta %v for tiny maturity", g.Theta)
	}
}

func TestVegaParamPerModel(t *testing.T) {
	cases := map[string]string{
		ModelBS1D: "sigma", ModelBSND: "sigma", ModelLocVol: "sigma0", ModelHeston: "V0",
	}
	for model, want := range cases {
		got, err := VolParam(model)
		if err != nil || got != want {
			t.Errorf("VolParam(%s) = %q, %v", model, got, err)
		}
	}
	if _, err := VolParam("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}
