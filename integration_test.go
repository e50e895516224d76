package riskbench_test

// End-to-end integration of the paper's full pipeline: generate a
// portfolio of problem files on disk, sload them, farm them over a real
// TCP world with the serialized-load strategy, and cross-check every
// price against direct computation.

import (
	"context"
	"math"
	"sync"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/simnet"
)

func TestEndToEndPaperPipeline(t *testing.T) {
	// 1. A portfolio of problem files on disk.
	pf := portfolio.Toy(40)
	dir := t.TempDir()
	paths, err := pf.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// 2. sload every file into a task (the serialized-load strategy).
	tasks := make([]farm.Task, len(paths))
	for i, path := range paths {
		s, err := nsp.SLoad(path)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = farm.Task{Name: pf.Items[i].Name, Data: s.Data, Cost: pf.Items[i].Cost}
	}

	// 3. A real TCP world: master hub + 3 worker processes (goroutines
	// here, but speaking the wire protocol).
	const size = 4
	hub, err := mpi.ListenHubWith("127.0.0.1:0", size, mpi.WorldOptions{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: 4}
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wc, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{Transport: "tcp"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			defer c.Close()
			if err := farm.RunWorker(c, farm.LiveExecutor{}, nil, opts); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(wc)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	results, err := farm.RunMaster(context.Background(), hub, tasks, farm.LiveLoader{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// 4. Every price matches direct computation.
	want := map[string]float64{}
	for _, it := range pf.Items {
		res, err := it.Problem.Compute()
		if err != nil {
			t.Fatal(err)
		}
		want[it.Name] = res.Price
	}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		p, err := farm.AsPriced(r)
		if err != nil || math.Abs(p.Result.Price-want[r.Name]) > 1e-12 {
			t.Fatalf("%s: result %+v (%v), want price %v", r.Name, p, err, want[r.Name])
		}
	}
}

func TestEndToEndSimulatedSweepConsistency(t *testing.T) {
	// The simulated makespan at 2 CPUs must approximate the portfolio's
	// total virtual work plus orchestration overhead, and the same tasks
	// must produce consistent speedup across strategies — the global sanity
	// contract behind every table in EXPERIMENTS.md.
	pf := portfolio.Toy(2000)
	tasks, err := pf.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	totalWork := pf.TotalCost()
	for _, strat := range []farm.Strategy{farm.FullLoad, farm.SerializedLoad} {
		t2, err := benchRun(tasks, 2, strat, nil)
		if err != nil {
			t.Fatal(err)
		}
		if t2 < totalWork {
			t.Fatalf("%v: makespan %v below total work %v", strat, t2, totalWork)
		}
		if t2 > 20*totalWork {
			t.Fatalf("%v: makespan %v implausibly above total work %v", strat, t2, totalWork)
		}
	}
	fs := simnet.NewNFS(simnet.DefaultNFS)
	tNFS, err := benchRun(tasks, 2, farm.NFSLoad, fs)
	if err != nil {
		t.Fatal(err)
	}
	if tNFS < totalWork {
		t.Fatalf("NFS makespan %v below total work %v", tNFS, totalWork)
	}
}

// benchRun is a minimal local copy of the bench.Run wiring, kept here so
// the integration test exercises the exported simnet/farm APIs directly.
func benchRun(tasks []farm.Task, cpus int, strat farm.Strategy, fs *simnet.NFS) (float64, error) {
	eng := simnet.NewEngine()
	world := simnet.NewWorld(eng, cpus, simnet.DefaultGigE)
	opts := farm.Options{Strategy: strat}
	costs := farm.DefaultSimCosts
	for r := 1; r < cpus; r++ {
		rank := r
		world.Go(rank, "w", func(c *simnet.Comm) {
			var store farm.Store
			if fs != nil {
				store = farm.SimStore{FS: fs, Comm: c}
			}
			_ = farm.RunWorker(c, farm.SimExecutor{Comm: c, Costs: costs}, store, opts)
		})
	}
	var masterErr error
	world.Go(0, "m", func(c *simnet.Comm) {
		_, masterErr = farm.RunMaster(context.Background(), c, tasks, farm.SimLoader{Comm: c, Costs: costs}, opts)
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if masterErr != nil {
		return 0, masterErr
	}
	return eng.Now(), nil
}
