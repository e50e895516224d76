package varisk

import "fmt"

// Preset is one of the benchmark's standard VaR workload sizes (the
// small/medium/large Monte Carlo VaR configurations of the
// nvidia-jetson financial-modeling workload, adapted to this farm):
// riskbench -var runs them end to end over the scaled realistic book.
type Preset struct {
	// Name is "small", "medium" or "large".
	Name string
	// DeltaGammaScenarios is the Monte Carlo sample size for the
	// delta–gamma estimator (cheap per scenario: no repricing).
	DeltaGammaScenarios int
	// FullScenarios is the sample size for full revaluation, where every
	// scenario reprices all 7931 claims through the farm — the outer
	// count of the nested outer×inner workload.
	FullScenarios int
	// Alphas are the confidence levels reported.
	Alphas []float64
	// HorizonDays is the market-move horizon.
	HorizonDays float64
	// Shrink is the numerical-effort scale applied to the realistic
	// book's paths/steps counts for live runs (portfolio.ScaleEffort),
	// keeping the claim mix and task count of the paper's portfolio at a
	// tractable per-task cost.
	Shrink float64
	// Seed is the scenario-stream seed, fixed per preset so runs are
	// reproducible bit for bit.
	Seed uint64
}

// SmallPreset is the quick configuration: 1000 delta–gamma scenarios,
// 32 full revaluations.
func SmallPreset() Preset {
	return Preset{
		Name:                "small",
		DeltaGammaScenarios: 1000,
		FullScenarios:       32,
		Alphas:              []float64{0.95, 0.99},
		HorizonDays:         10,
		Shrink:              1e-3,
		Seed:                20090417,
	}
}

// MediumPreset doubles the full-revaluation outer count and widens the
// confidence grid.
func MediumPreset() Preset {
	return Preset{
		Name:                "medium",
		DeltaGammaScenarios: 5000,
		FullScenarios:       64,
		Alphas:              []float64{0.90, 0.95, 0.99},
		HorizonDays:         10,
		Shrink:              1e-3,
		Seed:                20090417,
	}
}

// LargePreset is the stress configuration: 10000 delta–gamma scenarios
// and a 128-scenario full revaluation — over a million inner repricing
// tasks against the 7931-claim book.
func LargePreset() Preset {
	return Preset{
		Name:                "large",
		DeltaGammaScenarios: 10000,
		FullScenarios:       128,
		Alphas:              []float64{0.90, 0.95, 0.975, 0.99, 0.995},
		HorizonDays:         10,
		Shrink:              1e-3,
		Seed:                20090417,
	}
}

// PresetByName resolves "small" | "medium" | "large".
func PresetByName(name string) (Preset, error) {
	switch name {
	case "small":
		return SmallPreset(), nil
	case "medium":
		return MediumPreset(), nil
	case "large":
		return LargePreset(), nil
	default:
		return Preset{}, fmt.Errorf("varisk: unknown preset %q (want small, medium or large)", name)
	}
}

// Config returns the estimator configuration the preset implies.
func (p Preset) Config() Config {
	return Config{Alphas: p.Alphas, HorizonDays: p.HorizonDays}
}
