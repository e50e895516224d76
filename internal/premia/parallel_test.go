package premia

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"riskbench/internal/telemetry"
)

// kernelProblems enumerates one modest-sized problem per method that runs
// on the multicore pricing kernel, for the thread-invariance suite.
func kernelProblems() map[string]*Problem {
	return map[string]*Problem{
		"MC_Euro": bsProblem(OptCallEuro, MethodMCEuro, 100, 1).
			Set("paths", 20000),
		"MC_Euro_antithetic": bsProblem(OptCallEuro, MethodMCEuro, 100, 1).
			Set("paths", 20000).Set("antithetic", 1),
		"MC_Euro_barrier": barrierProblem(MethodMCEuro, 100, 1, 90).
			Set("paths", 5000).Set("mcsteps", 16),
		"MC_Euro_barrier_up": upBarrierProblem(MethodMCEuro, 100, 1, 130).
			Set("paths", 5000).Set("mcsteps", 16),
		"MC_Basket": basketProblem(4).Set("paths", 10000),
		"QMC_Basket": basketProblem(4).SetMethod(MethodQMCBasket).
			Set("paths", 8192).Set("rotations", 8),
		"MC_LocalVol": New().SetModel(ModelLocVol).SetOption(OptCallEuro).
			SetMethod(MethodMCLocalVol).
			Set("S0", 100).Set("r", 0.05).Set("sigma0", 0.25).Set("skew", -0.2).
			Set("K", 100).Set("T", 1).
			Set("paths", 5000).Set("mcsteps", 16),
		"MC_Heston": hestonProblem(OptCallEuro, MethodMCHeston).
			Set("paths", 5000).Set("mcsteps", 16),
		"LSM": bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1).
			Set("paths", 5000).Set("exdates", 20),
		"LSM_Alfonsi": hestonProblem(OptPutAmer, MethodMCAmerAlfonsi).
			Set("paths", 4000).Set("exdates", 20),
		"MC_Merton":      mertonProblem(OptCallEuro, MethodMCMerton).Set("paths", 20000),
		"MC_Credit_bond": creditProblem(OptDefaultableBond, MethodMCCredit).Set("paths", 20000),
		"MC_Credit_CDS":  creditProblem(OptCDS, MethodMCCredit).Set("paths", 20000),
		"MC_Vasicek": vasicekProblem(OptZCCall, MethodMCVasicek).
			Set("S", 4).Set("K", 0.85).Set("paths", 5000).Set("mcsteps", 16),
		"MC_Lookback": bsProblem(OptLookbackCallFloat, MethodMCLookback, 100, 1).
			Set("paths", 5000).Set("mcsteps", 16),
		"MC_Asian": asianProblem(OptAsianCallFix).Set("paths", 20000),
	}
}

// TestKernelBitIdenticalAcrossThreads is the kernel's determinism
// contract: the shard decomposition depends only on (seed, paths), so a
// serial run and runs 2 and 8 threads wide must agree bit for bit —
// price, confidence interval and delta. Run under -race via `make check`,
// this also exercises the pool for data races.
func TestKernelBitIdenticalAcrossThreads(t *testing.T) {
	for name, base := range kernelProblems() {
		base := base
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial, err := base.Clone().Set("threads", 1).Compute()
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 8} {
				parallel, err := base.Clone().Set("threads", float64(threads)).Compute()
				if err != nil {
					t.Fatal(err)
				}
				if serial.Price != parallel.Price || serial.PriceCI != parallel.PriceCI || serial.Delta != parallel.Delta {
					t.Errorf("threads=1 %v ± %v (delta %v) != threads=%d %v ± %v (delta %v)",
						serial.Price, serial.PriceCI, serial.Delta,
						threads, parallel.Price, parallel.PriceCI, parallel.Delta)
				}
			}
			// No "threads" parameter means the process default (serial
			// here), which must sit on the same decomposition.
			def, err := base.Clone().Compute()
			if err != nil {
				t.Fatal(err)
			}
			if def.Price != serial.Price {
				t.Errorf("default threads price %v != threads=1 price %v", def.Price, serial.Price)
			}
		})
	}
}

// TestOneMonteCarloRuntime: the kernel owns every Monte Carlo method's
// seed, shards and merge, so no file but parallel.go seeds an RNG of its
// own.
func TestOneMonteCarloRuntime(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if file != "parallel.go" && !strings.HasSuffix(file, "_test.go") && strings.Contains(string(src), "mathutil.NewRNG(") {
			t.Errorf("%s seeds its own RNG: draw paths through runPathKernel", file)
		}
	}
}

// TestKernelProcessDefaultThreads checks the SetKernelThreads plumbing:
// the process default applies when a problem has no "threads" parameter,
// changes nothing about the numbers, and loses to an explicit parameter.
func TestKernelProcessDefaultThreads(t *testing.T) {
	base := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 20000)
	serial, err := base.Clone().Compute()
	if err != nil {
		t.Fatal(err)
	}
	SetKernelThreads(4)
	defer SetKernelThreads(0)
	pooled, err := base.Clone().Compute()
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Price != serial.Price || pooled.PriceCI != serial.PriceCI {
		t.Errorf("process default 4 threads changed the estimate: %v ± %v vs %v ± %v",
			pooled.Price, pooled.PriceCI, serial.Price, serial.PriceCI)
	}
	explicit, err := base.Clone().Set("threads", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Price != serial.Price {
		t.Errorf("explicit threads=1 under process default 4: %v vs %v", explicit.Price, serial.Price)
	}
}

// TestKernelRejectsBadThreads: every Monte Carlo method — each has a
// row in kernelProblems — prices on the kernel, so each refuses a pool
// narrower than one goroutine and books one "premia.kernel.runs" a
// pricing.
func TestKernelRejectsBadThreads(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetProcess(reg)
	defer telemetry.SetProcess(nil)
	covered := map[string]bool{}
	for name, p := range kernelProblems() {
		covered[p.Method] = true
		for _, threads := range []float64{0, -1} {
			want := fmt.Sprintf("premia: %s needs threads >= 1, got %v", p.Method, threads)
			if _, err := p.Clone().Set("threads", threads).Compute(); err == nil || err.Error() != want {
				t.Errorf("%s at threads %v: err = %v, want %s", name, threads, err, want)
			}
		}
		before := reg.Snapshot().Counters["premia.kernel.runs"]
		if _, err := p.Clone().Set("threads", 1).Compute(); err != nil {
			t.Fatal(err)
		}
		if runs := reg.Snapshot().Counters["premia.kernel.runs"] - before; runs != 1 {
			t.Errorf("%s booked %v kernel runs, want 1", name, runs)
		}
	}
	for _, method := range Methods() {
		if (strings.HasPrefix(method, "MC_") || strings.HasPrefix(method, "QMC_")) && !covered[method] {
			t.Errorf("%s has no row in kernelProblems", method)
		}
	}
}

// TestKernelTelemetry checks the per-shard histogram, the thread-count
// gauge and the parallel-efficiency gauge reach the process sink, the
// last two for the goroutines a run actually used: a run never starts
// more goroutines than it has shards, and busy time over goroutines×wall
// cannot pass 1.
func TestKernelTelemetry(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetProcess(reg)
	defer telemetry.SetProcess(nil)
	check := func(threads int) {
		t.Helper()
		snap := reg.Snapshot()
		if got, ok := snap.Gauges["premia.kernel.threads"]; !ok || got != float64(threads) {
			t.Errorf("premia.kernel.threads = %v (recorded %v), want %d", got, ok, threads)
		}
		got, ok := snap.Gauges["premia.kernel.efficiency"]
		if !ok {
			t.Error("no parallel-efficiency gauge recorded")
		} else if got < 0 || got > 1+1e-9 {
			t.Errorf("efficiency %v outside [0, 1]", got)
		}
	}
	p := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 20000)
	if _, err := p.Clone().Set("threads", 4).Compute(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["premia.kernel.runs"] == 0 {
		t.Error("kernel run not counted")
	}
	hist, ok := snap.Histograms["premia.kernel.shard_seconds"]
	if !ok || hist.Count == 0 {
		t.Error("no per-shard compute histogram recorded")
	}
	check(4)
	// Ten paths are ten shards: sixteen threads run ten goroutines.
	if _, err := p.Clone().Set("paths", 10).Set("threads", 16).Compute(); err != nil {
		t.Fatal(err)
	}
	check(10)
}

// TestDispatch: the one goroutine loop runs every item exactly once, on
// as many goroutines as it reports — the width asked for, but never more
// than the items nor kernelShards — and never hands one goroutine index
// to two goroutines at once, so a scratch kept per index is never shared.
func TestDispatch(t *testing.T) {
	for _, c := range []struct{ threads, n, want int }{
		{1, 5, 1}, {0, 5, 1}, {2, 6, 2}, {4, 3, 3}, {3, 0, 1}, {1000, 200, kernelShards},
	} {
		runs := make([]atomic.Int64, c.n)
		busy := make([]atomic.Int64, kernelShards)
		used := dispatch(c.threads, c.n, func(w, item int) {
			if w < 0 || w >= c.want {
				t.Errorf("threads %d n %d: goroutine index %d", c.threads, c.n, w)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("threads %d n %d: goroutine index %d held by two goroutines", c.threads, c.n, w)
			}
			runs[item].Add(1)
			busy[w].Add(-1)
		})
		if used != c.want {
			t.Errorf("threads %d n %d: %d goroutines, want %d", c.threads, c.n, used, c.want)
		}
		for item := range runs {
			if r := runs[item].Load(); r != 1 {
				t.Errorf("threads %d n %d: item %d ran %d times", c.threads, c.n, item, r)
			}
		}
	}
}

// benchKernel prices p repeatedly, reporting paths/op via b.N.
func benchKernel(b *testing.B, p *Problem) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := p.Compute(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestKernelMCEuroAllocs is the kernel's allocation budget: on warm
// per-shard arenas one MC_Euro pricing allocates the telemetry
// shard-duration slices and the merged accumulator (8 measured), never
// per path or per shard — budget 16.
func TestKernelMCEuroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so the arenas are never reliably warm")
	}
	p := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 200000).Set("threads", 1)
	compute := func() {
		if _, err := p.Compute(); err != nil {
			t.Fatal(err)
		}
	}
	compute() // fill the arena pools outside the measurement
	if got := testing.AllocsPerRun(5, compute); got > 16 {
		t.Errorf("MC_Euro at threads=1 allocates %v per pricing, budget is 16", got)
	}
}

// BenchmarkKernelMCEuro compares serial vs sharded throughput of the
// scalar European MC pricer (-benchtime=1x is a smoke test; the default
// benchtime on a multicore machine measures the speedup).
func BenchmarkKernelMCEuro(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchKernel(b, bsProblem(OptCallEuro, MethodMCEuro, 100, 1).
				Set("paths", 2000000).Set("threads", float64(threads)))
		})
	}
}

// BenchmarkKernelMCBasket is the paper's 40-dimensional basket put
// workload on the kernel.
func BenchmarkKernelMCBasket(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchKernel(b, basketProblem(40).
				Set("paths", 50000).Set("threads", float64(threads)))
		})
	}
}

// BenchmarkKernelMCHeston covers a path-dependent (stepped) scheme.
func BenchmarkKernelMCHeston(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchKernel(b, hestonProblem(OptCallEuro, MethodMCHeston).
				Set("paths", 100000).Set("mcsteps", 64).Set("threads", float64(threads)))
		})
	}
}
