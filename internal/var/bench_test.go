package varisk

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// BenchmarkVaRDeltaGamma measures the delta–gamma hot path: evaluating
// the Taylor expansion over a Monte Carlo scenario set, tail sort and
// component attribution included, with the sensitivities collected once
// outside the loop (as the serving layer and the CLI do).
// TestDeltaGammaAllocs holds its allocation budget.
func BenchmarkVaRDeltaGamma(b *testing.B) {
	pf := smallBook()
	sens, err := CollectSensitivities(context.Background(), risk.Engine{Workers: 2}, pf)
	if err != nil {
		b.Fatal(err)
	}
	scens, err := DefaultMarket().Generate(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.95, 0.99}, HorizonDays: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DeltaGamma(sens, scens, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioGeneration measures the sharded Monte Carlo
// scenario generator.
func BenchmarkScenarioGeneration(b *testing.B) {
	m := DefaultMarket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GenerateParallel(context.Background(), 1000, 1, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCache is the engine's PriceCache for BenchmarkFullRevalToy: a
// locked map standing in for the server's sharded LRU (internal/serve
// imports this package, so the real one is out of reach here).
type benchCache struct {
	mu sync.Mutex
	m  map[string]premia.Result
}

func (c *benchCache) Get(key string) (premia.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

func (c *benchCache) Put(key string, res premia.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = res
}

// BenchmarkFullRevalToy is the benchmark's var_toy operation in process,
// on the engine as riskserver configures it at -workers 1: one
// full-revaluation report over the toy book, 250 claims × 24 scenarios,
// one farm round on a standing session, with the registry, the fleet
// book and the process sink live (spans, histograms and the per-method
// compute metrics are all paid for), the base column read from a price
// cache the first, untimed report fills, and the report's spans filed in
// a trace the caller roots, as serve.risk.report does. `make profile`
// runs it under the CPU profiler.
func BenchmarkFullRevalToy(b *testing.B) { benchFullReval(b, portfolio.Toy(250), 24) }

// BenchmarkFullRevalBook is the same operation at the smallest of
// SNIPPETS.md §3's presets, 100 options × 1000 samples: every claim is cut
// into sweeps, where the toy report's claims each fit one.
func BenchmarkFullRevalBook(b *testing.B) { benchFullReval(b, portfolio.Toy(100), 1000) }

// BenchmarkFullRevalReal is the benchmark's var_real operation in
// process: realSample's 33 claims, 5 scenarios, one worker. `-cpu 1,2`
// shows what a second core buys without the harness.
func BenchmarkFullRevalReal(b *testing.B) { benchFullReval(b, realSample(b), 5) }

// realSample is var_real's book: every 244th claim of the realistic book
// at numerical effort ×10⁻³ (33 claims, all six product classes, the two
// LSM baskets included).
func realSample(tb testing.TB) *portfolio.Portfolio {
	tb.Helper()
	full := portfolio.Realistic()
	if err := full.ScaleEffort(1e-3); err != nil {
		tb.Fatal(err)
	}
	pf := &portfolio.Portfolio{Name: "realistic-sample"}
	for i := 0; i < len(full.Items); i += 244 {
		pf.Items = append(pf.Items, full.Items[i])
	}
	return pf
}

// benchFullReval times full-revaluation reports of pf over `scenarios`
// scenarios on the engine as riskserver -workers 1 configures it, kernels
// as wide as it makes them: GOMAXPROCS.
func benchFullReval(b *testing.B, pf *portfolio.Portfolio, scenarios int) {
	premia.SetKernelThreads(runtime.GOMAXPROCS(0))
	defer premia.SetKernelThreads(0)
	scens, err := DefaultMarket().Generate(scenarios, 1)
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.New()
	telemetry.SetProcess(reg)
	defer telemetry.SetProcess(nil)
	eng := risk.Engine{Workers: 1, BatchSize: 16, Telemetry: reg, Fleet: farm.NewFleet(), Cache: &benchCache{m: map[string]premia.Result{}}}
	stop := eng.Stand()
	report := func() {
		root := reg.StartTrace("serve.risk.report")
		defer root.End()
		ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
		if _, err := FullReval(ctx, eng, pf, scens, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	report()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report()
	}
	b.StopTimer()
	if err := stop(); err != nil {
		b.Fatal(err)
	}
}
