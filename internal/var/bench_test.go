package varisk

import (
	"context"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
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

// BenchmarkFullRevalToy is the benchmark's var_toy operation in process:
// one full-revaluation report over the toy book, 250 claims × (24
// scenarios + base) = 6250 repricings in one farm round, on the
// engine riskserver builds at -workers 1 (a registry and a fleet, so
// spans, histograms and the fleet book are all live). `make profile`
// runs it under the CPU profiler.
func BenchmarkFullRevalToy(b *testing.B) {
	pf := portfolio.Toy(250)
	scens, err := DefaultMarket().Generate(24, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := risk.Engine{Workers: 1, BatchSize: 16, Telemetry: telemetry.New(), Fleet: farm.NewFleet()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FullReval(context.Background(), eng, pf, scens, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
