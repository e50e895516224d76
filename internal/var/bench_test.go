package varisk

import (
	"context"
	"testing"

	"riskbench/internal/risk"
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
