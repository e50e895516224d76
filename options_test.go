package riskbench_test

// Tests of the façade's engine and table entry points — RunTableWith,
// NewEngine, NewPricingServer — and the telemetry wiring.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"riskbench"
	"riskbench/internal/mpi"
	"riskbench/internal/portfolio"
	"riskbench/internal/serve"
)

// TestRunTableWithStrategyOverride runs a sweep trimmed and restricted
// to one strategy through the spec's own fields.
func TestRunTableWithStrategyOverride(t *testing.T) {
	spec := riskbench.TableII() // normally three strategies
	spec.Portfolio = riskbench.ToyPortfolio(200)
	spec.MaxCPUs = 2
	spec.Strategies = []riskbench.Strategy{riskbench.FullLoad}
	tbl, err := riskbench.RunTableWith(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Spec.Strategies) != 1 || tbl.Spec.Strategies[0] != riskbench.FullLoad {
		t.Errorf("strategies = %v, want [full load]", tbl.Spec.Strategies)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0].CPUs != 2 || len(tbl.Rows[0].Cells) != 1 {
		t.Errorf("rows = %+v, want one 2-CPU row with one cell", tbl.Rows)
	}
}

func TestRunTableWithCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := riskbench.TableII()
	spec.Portfolio = riskbench.ToyPortfolio(100)
	if _, err := riskbench.RunTableWith(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestNewEngineTelemetry checks that an engine built by NewEngine records
// the revaluation's phases and farm metrics into its Telemetry registry.
func TestNewEngineTelemetry(t *testing.T) {
	reg := riskbench.NewTelemetry()
	eng := riskbench.NewEngine(riskbench.WithWorkers(2))
	eng.BatchSize = 8
	eng.Telemetry = reg
	book := riskbench.ToyPortfolio(20)
	val, err := eng.Revalue(book, riskbench.StressScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if val.TotalBase() <= 0 {
		t.Error("base value not positive")
	}
	snap := reg.Snapshot()
	for _, span := range []string{"risk.revalue", "risk.build", "risk.farm", "risk.scatter", "farm.run"} {
		if snap.Spans[span].Count == 0 {
			t.Errorf("no %s span recorded", span)
		}
	}
	// One farm task per (claim, applicable scenario) pair plus the base
	// pass; the exact count depends on scenario universes, but it is at
	// least one base valuation per claim.
	if got := snap.Counters["risk.tasks"]; got < 20 {
		t.Errorf("risk.tasks = %d, want >= 20", got)
	}
	if snap.Histograms["farm.task_seconds"].Count == 0 {
		t.Error("farm.task_seconds histogram empty")
	}
	// Per-scenario revaluation timing: every claim is priced once under
	// the base scenario, each with a worker-measured compute time.
	if got := snap.Histograms["risk.scenario_seconds.base"].Count; got != 20 {
		t.Errorf("risk.scenario_seconds.base count = %d, want 20", got)
	}
}

func TestEngineRevalueCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := riskbench.NewEngine(riskbench.WithWorkers(2))
	_, err := eng.RevalueContext(ctx, riskbench.ToyPortfolio(10), riskbench.StressScenarios())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled revaluation returned %v, want context.Canceled", err)
	}
}

// TestSetTelemetrySnapshot checks the process-wide wiring: after
// SetTelemetry, pricing computations show up in riskbench.Snapshot().
func TestSetTelemetrySnapshot(t *testing.T) {
	reg := riskbench.NewTelemetry()
	riskbench.SetTelemetry(reg)
	defer riskbench.SetTelemetry(nil)
	p := riskbench.NewProblem().
		SetModel(riskbench.ModelBS1D).
		SetOption(riskbench.OptCallEuro).
		SetMethod(riskbench.MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).
		Set("K", 100).Set("T", 1)
	if _, err := p.Compute(); err != nil {
		t.Fatal(err)
	}
	snap := riskbench.Snapshot()
	if snap.Counters["premia.computes"] == 0 {
		t.Error("premia.computes not counted after SetTelemetry")
	}
	if snap.Histograms["premia.compute_seconds."+riskbench.MethodCFCall].Count == 0 {
		t.Error("per-method compute histogram empty")
	}
}

// TestMetricsHandler checks the HTTP endpoint the -telemetry flag mounts.
func TestMetricsHandler(t *testing.T) {
	reg := riskbench.NewTelemetry()
	reg.Counter("demo.count").Add(3)
	srv := httptest.NewServer(riskbench.MetricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap riskbench.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["demo.count"] != 3 {
		t.Errorf("endpoint counters = %v, want demo.count=3", snap.Counters)
	}
}

// TestSentinelsExported checks the façade error re-exports classify a
// failure produced deep inside the pricing layer.
func TestSentinelsExported(t *testing.T) {
	p := riskbench.NewProblem().SetMethod("bogus")
	_, err := p.Compute()
	if !errors.Is(err, riskbench.ErrUnknownMethod) {
		t.Fatalf("errors.Is(%v, ErrUnknownMethod) = false", err)
	}
}

// TestNewEngineKernelThreads checks the SetKernelThreads plumbing end to
// end: the engine's workers price on the multicore kernel at the process
// default width, and the estimate matches a serial run bit for bit (the
// kernel's determinism contract).
func TestNewEngineKernelThreads(t *testing.T) {
	mc := riskbench.NewProblem().
		SetModel(riskbench.ModelBS1D).SetOption(riskbench.OptCallEuro).
		SetMethod(riskbench.MethodMCEuro).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).
		Set("K", 100).Set("T", 1).Set("paths", 5000)
	pf := &riskbench.Portfolio{Name: "mc", Items: []portfolio.Item{
		{Name: "mc-call", Problem: mc, Cost: 1},
	}}

	reg := riskbench.NewTelemetry()
	riskbench.SetTelemetry(reg)
	defer riskbench.SetTelemetry(nil)

	defer riskbench.SetKernelThreads(0)
	run := func(threads int) *riskbench.Valuation {
		riskbench.SetKernelThreads(threads)
		val, err := riskbench.NewEngine(riskbench.WithWorkers(2)).Revalue(pf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return val
	}
	serial := run(1)
	pooled := run(4)
	if serial.Base[0] != pooled.Base[0] {
		t.Errorf("kernel threads changed the price: %v vs %v", serial.Base[0], pooled.Base[0])
	}
	if reg.Snapshot().Counters["premia.kernel.runs"] == 0 {
		t.Error("kernel never ran under the engine")
	}
}

// TestEngineWithCache gives a NewEngine engine a result cache: a second
// revaluation of the same book reads every base-scenario price from the
// cache, with a bit-identical valuation.
func TestEngineWithCache(t *testing.T) {
	reg := riskbench.NewTelemetry()
	eng := riskbench.NewEngine(riskbench.WithWorkers(2))
	eng.Telemetry = reg
	eng.Cache = serve.NewCache(128, reg)
	pf := riskbench.ToyPortfolio(8)
	scens := riskbench.SpotLadder()[:2]
	cold, err := eng.RevalueContext(context.Background(), pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.RevalueContext(context.Background(), pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["risk.base_cache_hits"]; hits != int64(pf.Size()) {
		t.Fatalf("second revaluation read %d base prices from the cache, want %d", hits, pf.Size())
	}
	if !reflect.DeepEqual(warm.Base, cold.Base) || !reflect.DeepEqual(warm.Values, cold.Values) {
		t.Fatal("the cached revaluation differs from the fresh one")
	}
}

// TestEngineWithTransport revalues a toy book on goroutine workers that
// dial a hub over unix sockets, bit-identically to the in-process
// engine, and checks that a transport mpi does not know fails the first
// round with mpi's error, which lists the transports it has.
func TestEngineWithTransport(t *testing.T) {
	pf := riskbench.ToyPortfolio(12)
	scens := riskbench.SpotLadder()[:2]
	local, err := riskbench.NewEngine(riskbench.WithWorkers(2)).Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := riskbench.NewEngine(riskbench.WithWorkers(2), riskbench.WithTransport("unix")).Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire.Base, local.Base) || !reflect.DeepEqual(wire.Values, local.Values) {
		t.Fatalf("unix revaluation differs from the in-process one:\nbase %v\nwant %v", wire.Base, local.Base)
	}
	_, err = riskbench.NewEngine(riskbench.WithTransport("carrier-pigeon")).Revalue(pf, scens)
	if err == nil || !strings.Contains(err.Error(), "unknown transport") || !strings.Contains(err.Error(), fmt.Sprint(mpi.Transports())) {
		t.Fatalf("unknown transport: err = %v, want mpi's unknown transport naming %v", err, mpi.Transports())
	}
}

// TestNewPricingServer drives the façade-built server end to end: a
// price request, a cache hit, health, and the server's own metrics.
func TestNewPricingServer(t *testing.T) {
	srv := riskbench.NewPricingServer(riskbench.WithWorkers(2))
	defer srv.Close()

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/price", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w
	}
	body := `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call",
		"params":{"S0":100,"r":0.05,"sigma":0.2,"K":100,"T":1}}`
	w1 := post(body)
	if w1.Code != 200 {
		t.Fatalf("first price: status %d body %s", w1.Code, w1.Body.String())
	}
	w2 := post(body)
	var r1, r2 struct {
		Price  float64 `json:"price"`
		Cached bool    `json:"cached"`
	}
	if err := json.Unmarshal(w1.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Price != r1.Price {
		t.Fatalf("cache replay mismatch: %+v vs %+v", r2, r1)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("healthz: %d", w.Code)
	}
	req = httptest.NewRequest("GET", "/metrics.json", nil)
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var snap riskbench.Metrics
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics.json: %v (status %d)", err, w.Code)
	}
	if snap.Counters["serve.requests"] != 2 {
		t.Errorf("serve.requests = %d, want 2", snap.Counters["serve.requests"])
	}
}
