package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"riskbench/internal/bench"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
	varisk "riskbench/internal/var"
)

// runVar runs one VaR preset end to end over the effort-scaled
// realistic book: full revaluation (every scenario reprices all 7931
// claims through the farm) and/or delta–gamma (one six-bump sensitivity
// revaluation, then Taylor evaluation per scenario). When verify is
// set, each estimator runs a second time with different kernel thread
// counts and scenario-generation shard counts and the two reports must
// match bit for bit — the end-to-end determinism check.
func runVar(ctx context.Context, presetName, method string, workers int, verify bool, reg *telemetry.Registry) {
	preset, err := varisk.PresetByName(presetName)
	if err != nil {
		fatalf("%v", err)
	}
	doFull := method == "full" || method == "both"
	doDG := method == "deltagamma" || method == "both"
	if !doFull && !doDG {
		fatalf("unknown -varmethod %q (want full, deltagamma or both)", method)
	}
	pf := portfolio.Realistic()
	if err := pf.ScaleEffort(preset.Shrink); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("VaR preset %s: realistic book (%d claims, numerical effort ×%g), horizon %gd, alphas %v\n",
		preset.Name, pf.Size(), preset.Shrink, preset.HorizonDays, preset.Alphas)
	model := varisk.DefaultMarket()
	model.HorizonDays = preset.HorizonDays
	cfg := preset.Config()
	// The content-addressed cache answers the base-scenario column on
	// repeat runs (the verification pass hits it wholesale).
	eng := risk.Engine{Workers: workers, Telemetry: reg, Cache: serve.NewCache(4*pf.Size(), reg)}

	var fullRep, dgRep *varisk.Report
	if doFull {
		scens, err := model.GenerateParallel(ctx, preset.FullScenarios, preset.Seed, runtime.NumCPU())
		if err != nil {
			fatalf("%v", err)
		}
		start := time.Now()
		fullRep, err = varisk.FullReval(ctx, eng, pf, scens, cfg)
		if err != nil {
			fatalf("full revaluation: %v", err)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Printf("\nfull revaluation: %d scenarios × %d claims in %.1fs on %d workers (%.3f scenarios/s, %.0f repricings/s)\n",
			len(scens), pf.Size(), elapsed, workers,
			float64(len(scens))/elapsed, float64(len(scens)*pf.Size())/elapsed)
		fmt.Print(fullRep.Format())
		if verify {
			verifyVar(ctx, "full revaluation", fullRep, func(vctx context.Context) (*varisk.Report, error) {
				// The passes run one after another, so the rerun can widen
				// the process's kernel and put it back after.
				premia.SetKernelThreads(2)
				defer premia.SetKernelThreads(0)
				scens2, err := model.GenerateParallel(vctx, preset.FullScenarios, preset.Seed, 1)
				if err != nil {
					return nil, err
				}
				return varisk.FullReval(vctx, eng, pf, scens2, cfg)
			})
		}
	}
	if doDG {
		sensStart := time.Now()
		sens, err := varisk.CollectSensitivities(ctx, eng, pf)
		if err != nil {
			fatalf("sensitivities: %v", err)
		}
		sensElapsed := time.Since(sensStart).Seconds()
		scens, err := model.GenerateParallel(ctx, preset.DeltaGammaScenarios, preset.Seed, runtime.NumCPU())
		if err != nil {
			fatalf("%v", err)
		}
		start := time.Now()
		dgRep, err = varisk.DeltaGamma(sens, scens, cfg)
		if err != nil {
			fatalf("delta-gamma: %v", err)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Printf("\ndelta-gamma: sensitivities in %.1fs (6 bump scenarios, %d wire deltas), %d scenarios evaluated in %.4fs (%.0f scenarios/s)\n",
			sensElapsed, dgRep.WireDeltas, len(scens), elapsed, float64(len(scens))/elapsed)
		fmt.Print(dgRep.Format())
		if verify {
			verifyVar(ctx, "delta-gamma", dgRep, func(vctx context.Context) (*varisk.Report, error) {
				scens2, err := model.GenerateParallel(vctx, preset.DeltaGammaScenarios, preset.Seed, 3)
				if err != nil {
					return nil, err
				}
				return varisk.DeltaGamma(sens, scens2, cfg)
			})
		}
	}
	if fullRep != nil && dgRep != nil {
		f, d := fullRep.Estimates[0], dgRep.Estimates[0]
		diff := 0.0
		if f.VaR != 0 {
			diff = 100 * (d.VaR - f.VaR) / f.VaR
		}
		fmt.Printf("\ndelta-gamma vs full VaR(%.0f%%): %.2f vs %.2f (%+.1f%%; Taylor truncation + sample noise)\n",
			f.Alpha*100, d.VaR, f.VaR, diff)
	}
}

// verifyVar re-runs an estimator with a different threading shape and
// requires the report's estimates to match the first run bit for bit.
func verifyVar(ctx context.Context, what string, rep *varisk.Report, rerun func(context.Context) (*varisk.Report, error)) {
	rep2, err := rerun(ctx)
	if err != nil {
		fatalf("%s verification run: %v", what, err)
	}
	if len(rep.Estimates) != len(rep2.Estimates) {
		fatalf("%s verification: estimate counts differ", what)
	}
	for i, e := range rep.Estimates {
		e2 := rep2.Estimates[i]
		if e.VaR != e2.VaR || e.CVaR != e2.CVaR {
			fatalf("%s verification: VaR(%.2f%%) differs across thread counts: %.17g/%.17g vs %.17g/%.17g",
				what, e.Alpha*100, e.VaR, e.CVaR, e2.VaR, e2.CVaR)
		}
	}
	fmt.Printf("verified: %s bit-identical across thread counts\n", what)
}

// runVarSim expands the preset's outer×inner nested workload into one
// flat batch over the full-effort realistic book and sweeps it on the
// simulated cluster: the paper's Table III shape at VaR scale, plus a
// hierarchical root-master row at the largest CPU count.
func runVarSim(ctx context.Context, presetName string, batch int) {
	preset, err := varisk.PresetByName(presetName)
	if err != nil {
		fatalf("%v", err)
	}
	if batch < 1 {
		batch = 1
	}
	pf := portfolio.Realistic()
	start := time.Now()
	tasks, err := varisk.SimTasks(pf, preset.FullScenarios)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("nested VaR workload (%s preset): %d outer scenarios × %d claims = %d tasks (built in %v)\n",
		preset.Name, preset.FullScenarios, pf.Size(), len(tasks), time.Since(start).Round(time.Millisecond))
	cpuCounts := []int{2, 64, 256, 512}
	rows, err := bench.RunNestedSweep(ctx, tasks, cpuCounts, batch, 8, 32)
	if err != nil {
		fatalf("%v", err)
	}
	title := fmt.Sprintf("Nested simulation sweep, serialized strategy, batch %d (virtual seconds)", batch)
	fmt.Print(bench.FormatNestedRows(title, rows))
	fmt.Printf("(simulated in %v wall time)\n", time.Since(start).Round(time.Millisecond))
}
