package riskbench_test

// The benchmark harness regenerating every table of the paper's
// evaluation (its Figures 1–5 are code listings, not data plots; the data
// artifacts are Tables I–III), plus the ablation benches DESIGN.md calls
// out and micro-benchmarks of the hot paths. Table benches report the
// simulated makespans as custom metrics: sim_s_<CPUs>cpu[_<strategy>].
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one table's rows:
//
//	go test -bench=BenchmarkTableIII -v

import (
	"context"
	"fmt"
	"testing"

	"riskbench/internal/bench"
	"riskbench/internal/farm"
	"riskbench/internal/mathutil"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
)

// reportTable runs the sweep once per benchmark iteration and attaches
// the paper-comparable numbers as metrics.
func reportTable(b *testing.B, spec bench.TableSpec) {
	b.Helper()
	var tbl *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = bench.RunTable(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range tbl.Rows {
		for _, s := range spec.Strategies {
			label := fmt.Sprintf("sim_s_%dcpu", row.CPUs)
			if len(spec.Strategies) > 1 {
				switch s {
				case farm.FullLoad:
					label += "_full"
				case farm.NFSLoad:
					label += "_nfs"
				case farm.SerializedLoad:
					label += "_ser"
				}
			}
			b.ReportMetric(row.Cells[s].Time, label)
		}
	}
}

// BenchmarkTableI regenerates Table I: speedups of the Premia
// non-regression suite, serialized load, 2–256 CPUs.
func BenchmarkTableI(b *testing.B) {
	reportTable(b, bench.TableI())
}

// BenchmarkTableII regenerates Table II: the 10,000-vanilla toy portfolio
// across the three communication strategies, 2–50 CPUs.
func BenchmarkTableII(b *testing.B) {
	reportTable(b, bench.TableII())
}

// BenchmarkTableIII regenerates Table III: the realistic 7931-claim
// portfolio across the three strategies, 2–512 CPUs.
func BenchmarkTableIII(b *testing.B) {
	reportTable(b, bench.TableIII())
}

// BenchmarkAblationScheduling compares Robin-Hood against static block
// assignment on the heterogeneous regression suite at 17 CPUs.
func BenchmarkAblationScheduling(b *testing.B) {
	tasks, err := portfolio.Regression().Tasks()
	if err != nil {
		b.Fatal(err)
	}
	var dyn, static float64
	for i := 0; i < b.N; i++ {
		if dyn, err = bench.Run(context.Background(), bench.RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad}); err != nil {
			b.Fatal(err)
		}
		if static, err = bench.Run(context.Background(), bench.RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad, Scheduler: bench.StaticBlock}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dyn, "sim_s_robinhood")
	b.ReportMetric(static, "sim_s_static")
}

// BenchmarkAblationBatching sweeps the batch size on the
// communication-bound toy portfolio at 17 CPUs (the latency fix proposed
// in the paper's §4.1/conclusion).
func BenchmarkAblationBatching(b *testing.B) {
	tasks, err := portfolio.Toy(10000).Tasks()
	if err != nil {
		b.Fatal(err)
	}
	for _, bs := range []int{1, 5, 20, 100} {
		b.Run(fmt.Sprintf("batch%d", bs), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t, err = bench.Run(context.Background(), bench.RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad, BatchSize: bs})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t, "sim_s")
		})
	}
}

// BenchmarkAblationHierarchy compares the flat master against sub-master
// hierarchies on the toy portfolio at 129 CPUs (the conclusion's proposed
// improvement).
func BenchmarkAblationHierarchy(b *testing.B) {
	tasks, err := portfolio.Toy(10000).Tasks()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flat", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t, err = bench.Run(context.Background(), bench.RunConfig{Tasks: tasks, CPUs: 129, Strategy: farm.SerializedLoad})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(t, "sim_s")
	})
	for _, groups := range []int{4, 8} {
		b.Run(fmt.Sprintf("groups%d", groups), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t, err = bench.Run(context.Background(), bench.RunConfig{
					Tasks: tasks, CPUs: 129, Strategy: farm.SerializedLoad,
					Scheduler: bench.Hierarchical, Groups: groups, Chunk: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t, "sim_s")
		})
	}
}

// BenchmarkAblationCompression compares raw and flate-compressed problem
// payloads on a bandwidth-starved link (the paper's "compressed
// serialization" future development).
func BenchmarkAblationCompression(b *testing.B) {
	tasks, err := portfolio.Toy(10000).Tasks()
	if err != nil {
		b.Fatal(err)
	}
	ctasks, err := bench.CompressTasks(tasks)
	if err != nil {
		b.Fatal(err)
	}
	slow := bench.RunConfig{CPUs: 17, Strategy: farm.SerializedLoad}
	slow.Link.Latency = 80e-6
	slow.Link.Bandwidth = 1e6
	slow.Link.SendOverhead = 25e-6
	slow.Link.RecvOverhead = 25e-6
	b.Run("raw", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			rc := slow
			rc.Tasks = tasks
			if t, err = bench.Run(context.Background(), rc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(t, "sim_s")
	})
	b.Run("compressed", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			rc := slow
			rc.Tasks = ctasks
			if t, err = bench.Run(context.Background(), rc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(t, "sim_s")
	})
}

// BenchmarkSerializePath measures the live master-side cost difference
// between the full-load path (decode + re-encode) and the serialized-load
// path (byte pass-through) — the asymmetry behind Table II's columns.
func BenchmarkSerializePath(b *testing.B) {
	p := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", 100).Set("T", 1)
	h, err := p.ToNsp()
	if err != nil {
		b.Fatal(err)
	}
	s, err := nsp.Serialize(h)
	if err != nil {
		b.Fatal(err)
	}
	task := farm.Task{Name: "bench", Data: s.Data}
	b.Run("full", func(b *testing.B) {
		loader := farm.LiveLoader{}
		for i := 0; i < b.N; i++ {
			if _, err := loader.Load(task, farm.FullLoad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serialized", func(b *testing.B) {
		loader := farm.LiveLoader{}
		for i := 0; i < b.N; i++ {
			if _, err := loader.Load(task, farm.SerializedLoad); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPricing measures each live method class once, the per-claim
// costs that §4.3's spectrum describes.
func BenchmarkPricing(b *testing.B) {
	cases := []struct {
		name string
		p    *premia.Problem
	}{
		{"VanillaCF", premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", 100).Set("T", 1)},
		{"BarrierPDE", premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptCallDownOut).SetMethod(premia.MethodFDCrank).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", 100).Set("T", 1).
			Set("L", 75).Set("nodes", 400).Set("steps", 364)},
		{"AmericanPDE", premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptPutAmer).SetMethod(premia.MethodFDBS).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", 100).Set("T", 1).
			Set("nodes", 400).Set("steps", 364)},
		{"BasketMC40d", premia.New().
			SetModel(premia.ModelBSND).SetOption(premia.OptPutBasketEuro).SetMethod(premia.MethodMCBasket).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("dim", 40).Set("rho", 0.3).
			Set("K", 100).Set("T", 1).Set("paths", 10000)},
		{"LocalVolMC", premia.New().
			SetModel(premia.ModelLocVol).SetOption(premia.OptCallEuro).SetMethod(premia.MethodMCLocalVol).
			Set("S0", 100).Set("r", 0.05).Set("sigma0", 0.2).Set("skew", -0.15).
			Set("K", 100).Set("T", 1).Set("paths", 10000).Set("mcsteps", 64)},
		{"AmericanLSM7d", premia.New().
			SetModel(premia.ModelBSND).SetOption(premia.OptPutBasketAmer).SetMethod(premia.MethodMCAmerLSM).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("dim", 7).Set("rho", 0.3).
			Set("K", 100).Set("T", 1).Set("paths", 5000).Set("exdates", 25)},
		{"HestonCF", premia.New().
			SetModel(premia.ModelHeston).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFHeston).
			Set("S0", 100).Set("r", 0.03).Set("V0", 0.04).Set("kappa", 2).Set("theta", 0.04).
			Set("sigmaV", 0.3).Set("rhoSV", -0.7).Set("K", 100).Set("T", 1)},
		{"HestonAmerAlfonsiLSM", premia.New().
			SetModel(premia.ModelHeston).SetOption(premia.OptPutAmer).SetMethod(premia.MethodMCAmerAlfonsi).
			Set("S0", 100).Set("r", 0.03).Set("V0", 0.04).Set("kappa", 2).Set("theta", 0.04).
			Set("sigmaV", 0.3).Set("rhoSV", -0.7).Set("K", 100).Set("T", 1).
			Set("paths", 5000).Set("exdates", 25)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.p.Compute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerialization measures the nsp wire codec on a realistic
// problem hash.
func BenchmarkSerialization(b *testing.B) {
	h, err := portfolio.Realistic().Items[0].Problem.ToNsp()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nsp.Serialize(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	s, err := nsp.Serialize(h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unserialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Unserialize(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compress", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Compress(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRNG measures the deterministic PCG64 generator against its
// role in the Monte Carlo inner loops.
func BenchmarkRNG(b *testing.B) {
	r := mathutil.NewRNG(1)
	b.Run("Uint64", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += r.Uint64()
		}
		_ = sink
	})
	b.Run("Norm", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += r.Norm()
		}
		_ = sink
	})
	// One op is one normal, drawn 280 at a time as a 7-d LSM basket path
	// of 40 dates draws them.
	b.Run("NormVec", func(b *testing.B) {
		v := make([]float64, 280)
		for i := 0; i < b.N; i += len(v) {
			r.NormVec(v)
		}
	})
}

// BenchmarkRiskRevaluation measures the live throughput of the risk
// engine (claims × scenarios per second) on a closed-form book — the
// paper's "huge number of atomic computations" pipeline.
func BenchmarkRiskRevaluation(b *testing.B) {
	book := portfolio.Mixed(100)
	scens := append(append(risk.SpotLadder(), risk.VolLadder()...), risk.StressScenarios()...)
	eng := risk.Engine{Workers: 4}
	atomic := book.Size() * (len(scens) + 1)
	var val *risk.Valuation
	for i := 0; i < b.N; i++ {
		var err error
		val, err = eng.Revalue(book, scens)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = val
	b.ReportMetric(float64(atomic), "atomic_computations")
}
