package varisk

import (
	"context"
	"math"
	"reflect"
	"testing"

	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

func callProblem(k float64) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", k).Set("T", 1)
}

func mcProblem(k float64, paths int) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodMCEuro).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", k).Set("T", 1).
		Set("paths", float64(paths))
}

// smallBook is a tiny all-closed-form call book: exact prices, so any
// disagreement between estimators is the estimator's own error.
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

// TestKupiecCoverage backtests the full-revaluation VaR the way a
// regulator would: estimate VaR on one scenario sample, count
// exceedances on an independent sample, and accept only if the Kupiec
// proportion-of-failures likelihood ratio stays under the χ²(1) 99%
// critical value. The book is closed-form Black–Scholes and the market
// model spot-only, so the only randomness is the scenario draw itself.
func TestKupiecCoverage(t *testing.T) {
	pf := smallBook()
	m := MarketModel{SpotVol: 0.25, HorizonDays: 10}
	eng := risk.Engine{Workers: 4}
	cfg := Config{Alphas: []float64{0.95}, HorizonDays: 10}
	const n = 2000

	scens, err := m.Generate(n, 1001)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FullReval(context.Background(), eng, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Estimates[0].VaR
	if v <= 0 {
		t.Fatalf("VaR(95%%) = %v, want positive for a long call book under spot risk", v)
	}

	// Independent sample, independent seed.
	scens2, err := m.Generate(n, 2002)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := FullReval(context.Background(), eng, pf, scens2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for _, pnl := range rep2.PnLs {
		if pnl < -v {
			x++
		}
	}
	p := 1 - cfg.Alphas[0]
	lr := kupiecLR(n, x, p)
	if lr > 6.635 { // χ²(1) at 99%
		t.Fatalf("Kupiec LR = %v with %d/%d exceedances at p=%v, rejects coverage", lr, x, n, p)
	}
}

// kupiecLR is the proportion-of-failures likelihood ratio statistic.
func kupiecLR(n, x int, p float64) float64 {
	if x == 0 {
		return -2 * float64(n) * math.Log(1-p)
	}
	phat := float64(x) / float64(n)
	return -2 * (float64(n-x)*math.Log((1-p)/(1-phat)) + float64(x)*math.Log(p/phat))
}

// TestDeltaGammaMatchesFullOnSmallShocks: for small joint moves the
// Taylor expansion must agree with full revaluation scenario by
// scenario — this pins the coordinate conventions (relative spot,
// relative vol, absolute rate) between the two estimators.
func TestDeltaGammaMatchesFullOnSmallShocks(t *testing.T) {
	pf := smallBook()
	eng := risk.Engine{Workers: 4}
	scens := []risk.Scenario{
		{Name: "s-up", Shifts: []risk.Shift{{Param: "S0", Rel: 0.002}}},
		{Name: "s-dn", Shifts: []risk.Shift{{Param: "S0", Rel: -0.002}}},
		{Name: "v-up", Shifts: []risk.Shift{{Param: risk.VolToken, Rel: 0.005}}},
		{Name: "r-dn", Shifts: []risk.Shift{{Param: risk.RateToken, Abs: -0.0002}}},
		{Name: "joint", Shifts: []risk.Shift{
			{Param: "S0", Rel: -0.003}, {Param: risk.VolToken, Rel: 0.004}, {Param: risk.RateToken, Abs: 0.0001},
		}},
	}
	cfg := Config{Alphas: []float64{0.8}}
	full, err := FullReval(context.Background(), eng, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := CollectSensitivities(context.Background(), eng, pf)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-form BS ships its delta over the wire; the spot term should
	// be analytic for the whole book.
	if sens.BaseValue != full.BaseValue {
		t.Errorf("base value %v vs %v", sens.BaseValue, full.BaseValue)
	}
	dg, err := DeltaGamma(sens, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dg.WireDeltas != pf.Size() {
		t.Errorf("wire deltas = %d, want %d (CF_Call reports delta)", dg.WireDeltas, pf.Size())
	}
	for i := range scens {
		f, d := full.PnLs[i], dg.PnLs[i]
		tol := 0.02*math.Abs(f) + 0.01
		if math.Abs(f-d) > tol {
			t.Errorf("scenario %q: full P&L %v vs delta-gamma %v", scens[i].Name, f, d)
		}
	}
}

func TestDeltaGammaRejectsUnprojectableScenario(t *testing.T) {
	sens, err := CollectSensitivities(context.Background(), risk.Engine{Workers: 2}, smallBook())
	if err != nil {
		t.Fatal(err)
	}
	_, err = DeltaGamma(sens, []risk.Scenario{{Name: "k", Shifts: []risk.Shift{{Param: "K", Rel: 0.1}}}}, Config{})
	if err == nil {
		t.Fatal("strike shock evaluated by Taylor expansion")
	}
}

// TestFullRevalBitIdenticalAcrossKernelThreads is the estimator half of
// the determinism contract: a Monte Carlo book prices bit-identically
// at any multicore kernel thread count, so the VaR does too.
func TestFullRevalBitIdenticalAcrossKernelThreads(t *testing.T) {
	pf := &portfolio.Portfolio{Name: "mc"}
	for i, k := range []float64{90, 100, 110} {
		pf.Items = append(pf.Items, portfolio.Item{
			Name: "mc-" + string(rune('a'+i)), Problem: mcProblem(k, 4000), Cost: 0.01,
		})
	}
	scens, err := DefaultMarket().Generate(16, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.9}, HorizonDays: 10}
	var want *Report
	defer premia.SetKernelThreads(0)
	for _, threads := range []int{1, 2, 4} {
		premia.SetKernelThreads(threads)
		rep, err := FullReval(context.Background(), risk.Engine{Workers: 2}, pf, scens, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		for i := range want.PnLs {
			if rep.PnLs[i] != want.PnLs[i] {
				t.Fatalf("kernel threads %d: P&L[%d] = %.17g, want %.17g", threads, i, rep.PnLs[i], want.PnLs[i])
			}
		}
		if rep.Estimates[0].VaR != want.Estimates[0].VaR || rep.Estimates[0].CVaR != want.Estimates[0].CVaR {
			t.Fatalf("kernel threads %d: estimates differ", threads)
		}
	}
}

// TestFullRevalRealSampleAcrossKernelWidths: the var_real report — a
// book of PDE, Monte Carlo, LSM and closed-form claims whose messages a
// worker prices side by side at the kernel width — is the same report,
// every P&L to the bit, at widths 1, 2 and 4.
func TestFullRevalRealSampleAcrossKernelWidths(t *testing.T) {
	pf := realSample(t)
	scens, err := DefaultMarket().Generate(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want *Report
	defer premia.SetKernelThreads(0)
	for _, width := range []int{1, 2, 4} {
		premia.SetKernelThreads(width)
		rep, err := FullReval(context.Background(), risk.Engine{Workers: 1, BatchSize: 16}, pf, scens, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
		} else if !reflect.DeepEqual(rep, want) {
			t.Fatalf("width %d: %+v\nwidth 1: %+v", width, rep, want)
		}
	}
}

// TestComponentsSumToCVaR: Euler attribution over the same tail set as
// ExpectedShortfall means the per-claim contributions over ALL claims
// sum to the book CVaR at the attribution level, for both estimators.
func TestComponentsSumToCVaR(t *testing.T) {
	pf := smallBook()
	eng := risk.Engine{Workers: 4}
	scens, err := DefaultMarket().Generate(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.95}, HorizonDays: 10, TopComponents: 100}
	full, err := FullReval(context.Background(), eng, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := CollectSensitivities(context.Background(), eng, pf)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := DeltaGamma(sens, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{full, dg} {
		cvar := rep.Estimates[0].CVaR
		if diff := math.Abs(rep.ComponentTotal - cvar); diff > 1e-9*(1+math.Abs(cvar)) {
			t.Errorf("%s: component total %v vs CVaR %v", rep.Method, rep.ComponentTotal, cvar)
		}
		if len(rep.Components) != pf.Size() {
			t.Errorf("%s: %d component rows, want %d", rep.Method, len(rep.Components), pf.Size())
		}
		sum := 0.0
		for _, c := range rep.Components {
			sum += c.Contribution
		}
		if diff := math.Abs(sum - rep.ComponentTotal); diff > 1e-9*(1+math.Abs(sum)) {
			t.Errorf("%s: kept rows sum %v vs total %v with all rows kept", rep.Method, sum, rep.ComponentTotal)
		}
	}
}

// TestHorizonScaling: ScaleDays applies the square-root-of-time rule to
// the estimates (and components) but leaves the raw P&L sample alone.
func TestHorizonScaling(t *testing.T) {
	sens, err := CollectSensitivities(context.Background(), risk.Engine{Workers: 2}, smallBook())
	if err != nil {
		t.Fatal(err)
	}
	scens, err := DefaultMarket().Generate(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := DeltaGamma(sens, scens, Config{Alphas: []float64{0.95}, HorizonDays: 10})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := DeltaGamma(sens, scens, Config{Alphas: []float64{0.95}, HorizonDays: 10, ScaleDays: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Estimates[0].VaR * math.Sqrt(2)
	if diff := math.Abs(scaled.Estimates[0].VaR - want); diff > 1e-12*(1+want) {
		t.Errorf("scaled VaR %v, want %v", scaled.Estimates[0].VaR, want)
	}
	for i := range base.PnLs {
		if base.PnLs[i] != scaled.PnLs[i] {
			t.Fatal("scaling touched the raw P&L sample")
		}
	}
}

// TestConfigValidate: user-supplied confidence levels surface as errors
// from both estimators — before any repricing — instead of risk.VaR
// panics, and a ScaleDays rescaling without a horizon is rejected
// rather than silently ignored.
func TestConfigValidate(t *testing.T) {
	pf := smallBook()
	eng := risk.Engine{Workers: 2}
	sens, err := CollectSensitivities(context.Background(), eng, pf)
	if err != nil {
		t.Fatal(err)
	}
	scens := []risk.Scenario{{Name: "s", Shifts: []risk.Shift{{Param: "S0", Rel: -0.01}}}}
	for _, alphas := range [][]float64{{1.5}, {1}, {0}, {-1}, {0.95, 1}, {math.NaN()}} {
		if _, err := DeltaGamma(sens, scens, Config{Alphas: alphas}); err == nil {
			t.Errorf("delta-gamma accepted alphas %v", alphas)
		}
		if _, err := FullReval(context.Background(), eng, pf, scens, Config{Alphas: alphas}); err == nil {
			t.Errorf("full revaluation accepted alphas %v", alphas)
		}
	}
	if _, err := DeltaGamma(sens, scens, Config{ScaleDays: 10}); err == nil {
		t.Error("ScaleDays without HorizonDays accepted")
	}
	if err := (Config{Alphas: []float64{0.95}, HorizonDays: 10, ScaleDays: 20}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestProfitTailClampsAttribution: when every scenario is a gain the
// estimators clamp VaR/CVaR to zero; attribution mirrors that clamp —
// no components, zero total — instead of reporting a negative
// ComponentTotal that the clamped CVaR no longer matches.
func TestProfitTailClampsAttribution(t *testing.T) {
	sens, err := CollectSensitivities(context.Background(), risk.Engine{Workers: 2}, smallBook())
	if err != nil {
		t.Fatal(err)
	}
	// A long call book gains on every up-move, so the whole P&L sample —
	// the CVaR tail included — is profit.
	scens := []risk.Scenario{
		{Name: "up1", Shifts: []risk.Shift{{Param: "S0", Rel: 0.01}}},
		{Name: "up2", Shifts: []risk.Shift{{Param: "S0", Rel: 0.02}}},
		{Name: "up5", Shifts: []risk.Shift{{Param: "S0", Rel: 0.05}}},
	}
	rep, err := DeltaGamma(sens, scens, Config{Alphas: []float64{0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Estimates[0].CVaR != 0 {
		t.Fatalf("CVaR = %v, want 0 on an all-profit sample", rep.Estimates[0].CVaR)
	}
	if rep.ComponentTotal != 0 || len(rep.Components) != 0 {
		t.Errorf("attribution total %v over %d rows, want zero/none like the clamped CVaR",
			rep.ComponentTotal, len(rep.Components))
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.FullScenarios < 1 || p.DeltaGammaScenarios < p.FullScenarios {
			t.Errorf("preset %q ill-formed: %+v", name, p)
		}
		cfg := p.Config().withDefaults()
		if len(cfg.Alphas) == 0 {
			t.Errorf("preset %q has no alphas", name)
		}
	}
	if _, err := PresetByName("xxl"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestFullRevalMetricLabelsDoNotGrowWithScenarios: scenario names come
// from the request (mc000001 …), so a metric label per scenario is a
// registry that grows with every report and never shrinks. The engine
// attributes revaluation timing to the fixed base/shocked labels only:
// 10 or 500 scenarios leave the same histograms and counters behind.
func TestFullRevalMetricLabelsDoNotGrowWithScenarios(t *testing.T) {
	reg := telemetry.New()
	eng := risk.Engine{Workers: 2, Telemetry: reg}
	pf := smallBook()
	series := func(n int) (hists, counters int) {
		scens, err := DefaultMarket().Generate(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FullReval(context.Background(), eng, pf, scens, Config{}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		return len(snap.Histograms), len(snap.Counters)
	}
	h10, c10 := series(10)
	h500, c500 := series(500)
	if h10 != h500 || c10 != c500 {
		t.Fatalf("registry grew with the scenario count: %d histograms and %d counters after 10 scenarios, %d and %d after 500", h10, c10, h500, c500)
	}
	if got := reg.Snapshot().Histograms["risk.scenario_seconds.shocked"].Count; got != int64(510*pf.Size()) {
		t.Fatalf("risk.scenario_seconds.shocked holds %d observations, want %d", got, 510*pf.Size())
	}
}

// TestDeltaGammaAllocs is the delta–gamma allocation budget: over 1000
// scenarios on pre-collected sensitivities a report allocates the P&L
// and shock-coordinate slices, the tail argsort index and the report
// itself (17 measured) — per-scenario work allocates nothing. Budget 32.
func TestDeltaGammaAllocs(t *testing.T) {
	sens, err := CollectSensitivities(context.Background(), risk.Engine{Workers: 2}, smallBook())
	if err != nil {
		t.Fatal(err)
	}
	scens, err := DefaultMarket().Generate(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.95, 0.99}, HorizonDays: 10}
	got := testing.AllocsPerRun(20, func() {
		if _, err := DeltaGamma(sens, scens, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > 32 {
		t.Errorf("DeltaGamma over 1000 scenarios allocates %v per report, budget is 32", got)
	}
}
