package risk

import (
	"math"
	"strings"
	"testing"

	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
)

func callProblem(k float64) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", k).Set("T", 1)
}

func TestScenarioApplyRelAbs(t *testing.T) {
	p := callProblem(100)
	sc := Scenario{Name: "x", Shifts: []Shift{
		{Param: "S0", Rel: 0.1},
		{Param: "r", Abs: 0.01},
	}}
	q, err := sc.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Params["S0"]-110) > 1e-12 {
		t.Errorf("S0 = %v, want 110", q.Params["S0"])
	}
	if math.Abs(q.Params["r"]-0.05) > 1e-15 {
		t.Errorf("r = %v, want 0.05", q.Params["r"])
	}
	// The original is untouched.
	if p.Params["S0"] != 100 || p.Params["r"] != 0.04 {
		t.Error("Apply mutated the original problem")
	}
}

func TestScenarioApplyVolToken(t *testing.T) {
	// The vol token resolves per model.
	bs, err := (Scenario{Name: "v", Shifts: []Shift{{Param: VolToken, Rel: 0.5}}}).Apply(callProblem(100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bs.Params["sigma"]-0.3) > 1e-15 {
		t.Errorf("sigma = %v, want 0.3", bs.Params["sigma"])
	}
	heston := premia.New().
		SetModel(premia.ModelHeston).SetOption(premia.OptPutEuro).SetMethod(premia.MethodCFHeston).
		Set("S0", 100).Set("r", 0.03).Set("V0", 0.04).Set("kappa", 2).Set("theta", 0.04).
		Set("sigmaV", 0.3).Set("rhoSV", -0.5).Set("K", 100).Set("T", 1)
	hb, err := (Scenario{Name: "v", Shifts: []Shift{{Param: VolToken, Rel: 0.5}}}).Apply(heston)
	if err != nil {
		t.Fatal(err)
	}
	// Variance bump squares the volatility bump: 0.04·1.5² = 0.09.
	if math.Abs(hb.Params["V0"]-0.09) > 1e-12 {
		t.Errorf("V0 = %v, want 0.09", hb.Params["V0"])
	}
}

func TestScenarioApplyMissingParam(t *testing.T) {
	sc := Scenario{Name: "bad", Shifts: []Shift{{Param: "nonexistent", Rel: 0.1}}}
	if _, err := sc.Apply(callProblem(100)); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestLadders(t *testing.T) {
	spot := SpotLadder()
	if len(spot) != 10 {
		t.Fatalf("spot ladder has %d scenarios", len(spot))
	}
	for _, sc := range spot {
		if len(sc.Shifts) != 1 || sc.Shifts[0].Param != "S0" {
			t.Fatalf("bad spot scenario %+v", sc)
		}
	}
	if len(VolLadder()) != 6 || len(RateShifts()) != 6 || len(StressScenarios()) != 4 {
		t.Error("standard ladders changed size")
	}
	grid := Grid([]float64{-0.1, 0, 0.1}, []float64{-0.2, 0.2})
	if len(grid) != 6 {
		t.Fatalf("grid has %d scenarios", len(grid))
	}
}

func TestVaRQuantiles(t *testing.T) {
	// P&L of -100..-1 and 1..100: at 99% the worst 1% boundary is ≈ -99.
	pnls := make([]float64, 0, 200)
	for i := 1; i <= 100; i++ {
		pnls = append(pnls, float64(i), -float64(i))
	}
	v := VaR(pnls, 0.99)
	if v < 97 || v > 100 {
		t.Errorf("VaR(99%%) = %v, want ≈99", v)
	}
	es := ExpectedShortfall(pnls, 0.99)
	if es < v {
		t.Errorf("ES %v below VaR %v", es, v)
	}
	if VaR(nil, 0.99) != 0 || ExpectedShortfall(nil, 0.99) != 0 {
		t.Error("empty P&L should give 0")
	}
	// All-gain book has zero VaR.
	if VaR([]float64{1, 2, 3}, 0.9) != 0 {
		t.Error("gains produced positive VaR")
	}
}

func TestVaRPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VaR([]float64{1}, 1.5)
}

// smallBook builds a tiny all-closed-form portfolio for live revaluation.
func smallBook() *portfolio.Portfolio {
	pf := &portfolio.Portfolio{Name: "book"}
	for i, k := range []float64{80, 90, 100, 110, 120} {
		pf.Items = append(pf.Items, portfolio.Item{
			Name:    "call-" + string(rune('a'+i)),
			Problem: callProblem(k),
			Cost:    0.001,
		})
	}
	return pf
}

func TestRevalueBaseMatchesDirect(t *testing.T) {
	pf := smallBook()
	val, err := Engine{Workers: 3}.Revalue(pf, SpotLadder())
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range pf.Items {
		res, err := it.Problem.Compute()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(val.Base[i]-res.Price) > 1e-12 {
			t.Errorf("%s: base %v vs direct %v", it.Name, val.Base[i], res.Price)
		}
	}
}

func TestRevalueMonotoneInSpot(t *testing.T) {
	// A book of long calls gains when spot rises and loses when it falls,
	// monotonically across the ladder.
	pf := smallBook()
	ladder := SpotLadder() // sorted ascending in spot
	val, err := Engine{Workers: 2}.Revalue(pf, ladder)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for s := range ladder {
		total := val.ScenarioTotal(s)
		if total < prev {
			t.Fatalf("call book value not monotone in spot: %v after %v (%s)", total, prev, ladder[s].Name)
		}
		prev = total
	}
	// Down scenarios lose, up scenarios gain.
	if val.PnL(0) >= 0 {
		t.Errorf("spot -20%% P&L %v not negative", val.PnL(0))
	}
	if val.PnL(len(ladder)-1) <= 0 {
		t.Errorf("spot +20%% P&L %v not positive", val.PnL(len(ladder)-1))
	}
}

func TestRevalueVolUpRaisesOptionBook(t *testing.T) {
	pf := smallBook()
	val, err := Engine{Workers: 2}.Revalue(pf, []Scenario{
		{Name: "vol+25", Shifts: []Shift{{Param: VolToken, Rel: 0.25}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if val.PnL(0) <= 0 {
		t.Errorf("long-option book P&L %v not positive under a vol spike", val.PnL(0))
	}
}

func TestRevalueDeterministicAcrossWorkerCounts(t *testing.T) {
	pf := smallBook()
	scens := StressScenarios()
	v1, err := Engine{Workers: 1}.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := Engine{Workers: 4, BatchSize: 2}.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	for s := range scens {
		if math.Abs(v1.ScenarioTotal(s)-v4.ScenarioTotal(s)) > 1e-12 {
			t.Fatalf("scenario %d differs across worker counts", s)
		}
	}
}

func TestRevalueReport(t *testing.T) {
	pf := smallBook()
	val, err := Engine{Workers: 2}.Revalue(pf, StressScenarios())
	if err != nil {
		t.Fatal(err)
	}
	rep := val.Report(0.99)
	for _, want := range []string{"base portfolio value", "crash-20/vol+50", "VaR", "shortfall"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestPortfolioGreeks(t *testing.T) {
	pf := smallBook()
	g, err := Greeks(pf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Value <= 0 {
		t.Errorf("book value %v", g.Value)
	}
	// Long calls: positive delta, gamma, vega; negative theta.
	if g.Delta <= 0 || g.Delta >= 5 {
		t.Errorf("book delta %v outside (0,5)", g.Delta)
	}
	if g.Gamma <= 0 || g.Vega <= 0 {
		t.Errorf("gamma %v / vega %v not positive", g.Gamma, g.Vega)
	}
	if g.Theta >= 0 {
		t.Errorf("book theta %v not negative", g.Theta)
	}
}

func TestRevalueMatchesGreeksFirstOrder(t *testing.T) {
	// For a 1% spot move the scenario P&L must match delta·ΔS to first
	// order (gamma correction bounds the error).
	pf := smallBook()
	g, err := Greeks(pf)
	if err != nil {
		t.Fatal(err)
	}
	val, err := Engine{Workers: 2}.Revalue(pf, []Scenario{
		{Name: "S+1%", Shifts: []Shift{{Param: "S0", Rel: 0.01}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := 1.0 // 1% of S0=100
	want := g.Delta*ds + 0.5*g.Gamma*ds*ds
	if diff := math.Abs(val.PnL(0) - want); diff > 0.02 {
		t.Errorf("P&L %v vs delta-gamma approx %v (diff %v)", val.PnL(0), want, diff)
	}
}

func TestRateTokenResolvesPerModel(t *testing.T) {
	sc := Scenario{Name: "r+100bp", Shifts: []Shift{{Param: RateToken, Abs: 0.01}}}
	eq, err := sc.Apply(callProblem(100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eq.Params["r"]-0.05) > 1e-15 {
		t.Errorf("equity r = %v", eq.Params["r"])
	}
	vas := premia.New().SetAsset(premia.AssetRate).
		SetModel(premia.ModelVasicek).SetOption(premia.OptZCBond).SetMethod(premia.MethodCFVasicek).
		Set("r0", 0.03).Set("a", 0.5).Set("b", 0.05).Set("sigmaR", 0.01).Set("T", 2)
	vb, err := sc.Apply(vas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vb.Params["r0"]-0.04) > 1e-15 {
		t.Errorf("Vasicek r0 = %v", vb.Params["r0"])
	}
}

func TestScenarioAppliesTo(t *testing.T) {
	spot := Scenario{Name: "s", Shifts: []Shift{{Param: "S0", Rel: 0.1}}}
	vol := Scenario{Name: "v", Shifts: []Shift{{Param: VolToken, Rel: 0.1}}}
	credit := premia.New().SetAsset(premia.AssetCredit).
		SetModel(premia.ModelConstHazard).SetOption(premia.OptCDS).SetMethod(premia.MethodCFCredit).
		Set("lambda", 0.02).Set("recovery", 0.4).Set("r", 0.03).Set("T", 5)
	if !applies(spot, callProblem(100)) {
		t.Error("spot ladder should apply to equity")
	}
	if applies(spot, credit) {
		t.Error("spot ladder should not apply to credit")
	}
	if applies(vol, credit) {
		t.Error("vol ladder should not apply to credit")
	}
}

// applies reports whether every shift of sc names a parameter p carries:
// Apply refuses the others.
func applies(sc Scenario, p *premia.Problem) bool {
	_, err := sc.Apply(p)
	return err == nil
}

func TestRevalueMixedBookSelective(t *testing.T) {
	pf := portfolio.Mixed(40)
	ladder := SpotLadder()[:3] // three spot scenarios
	val, err := Engine{Workers: 2}.Revalue(pf, ladder)
	if err != nil {
		t.Fatal(err)
	}
	// Rates and credit claims must hold their base values under the spot
	// ladder; equity claims must move.
	movedEquity := false
	for i, it := range pf.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		for s := range ladder {
			if class == "eq" {
				if val.Values[s][i] != val.Base[i] {
					movedEquity = true
				}
			} else if val.Values[s][i] != val.Base[i] {
				t.Fatalf("%s moved under %s", it.Name, ladder[s].Name)
			}
		}
	}
	if !movedEquity {
		t.Fatal("no equity claim moved under the spot ladder")
	}
	// Rate shifts move every class (all carry a rate parameter).
	rates := RateShifts()[:1]
	val2, err := Engine{Workers: 2}.Revalue(pf, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range pf.Items {
		if val2.Values[0][i] == val2.Base[i] {
			// Digitals near expiry may be rate-insensitive, but the
			// standard claims all move; require most of the book to move.
			_ = it
		}
	}
	moved := 0
	for i := range pf.Items {
		if val2.Values[0][i] != val2.Base[i] {
			moved++
		}
	}
	if moved < pf.Size()*3/4 {
		t.Fatalf("only %d of %d claims moved under a rate shift", moved, pf.Size())
	}
}
