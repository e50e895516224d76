package farm

import (
	"context"
	"fmt"
	"testing"

	"riskbench/internal/simnet"
)

// simTasks builds n tasks of the given virtual cost with ~300-byte
// payloads (a realistic serialized-problem size).
func simTasks(n int, cost float64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Name: fmt.Sprintf("sim-%05d", i),
			Data: make([]byte, 300),
			Cost: cost,
		}
	}
	return tasks
}

// runSimFarm executes the farm on a simulated cluster and returns the
// virtual makespan in seconds.
func runSimFarm(t *testing.T, tasks []Task, workers int, opts Options, link simnet.LinkConfig, fs *simnet.NFS) (float64, []Result) {
	t.Helper()
	eng := simnet.NewEngine()
	world := simnet.NewWorld(eng, workers+1, link)
	costs := DefaultSimCosts
	for r := 1; r <= workers; r++ {
		rank := r
		world.Go(rank, fmt.Sprintf("worker-%d", rank), func(c *simnet.Comm) {
			var store Store
			if fs != nil {
				store = SimStore{FS: fs, Comm: c}
			}
			if err := RunWorker(c, SimExecutor{Comm: c, Costs: costs}, store, opts); err != nil {
				t.Errorf("sim worker %d: %v", rank, err)
			}
		})
	}
	var results []Result
	var masterErr error
	world.Go(0, "master", func(c *simnet.Comm) {
		results, masterErr = RunMaster(context.Background(), c, tasks, SimLoader{Comm: c, Costs: costs}, opts)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	if masterErr != nil {
		t.Fatalf("sim master: %v", masterErr)
	}
	return eng.Now(), results
}

func TestSimFarmCompletesAllTasks(t *testing.T) {
	tasks := simTasks(200, 0.01)
	_, results := runSimFarm(t, tasks, 8, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	if len(results) != 200 {
		t.Fatalf("%d results, want 200", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Name] {
			t.Fatalf("duplicate %s", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestSimFarmSpeedupScalesWithWorkers(t *testing.T) {
	// 200 tasks × 0.1 s of compute: with cheap communication the makespan
	// must shrink ~linearly from 1 to 10 workers.
	tasks := simTasks(200, 0.1)
	t1, _ := runSimFarm(t, tasks, 1, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	t10, _ := runSimFarm(t, tasks, 10, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	if t1 < 20 {
		t.Fatalf("1-worker makespan %v below total work", t1)
	}
	speedup := t1 / t10
	if speedup < 8.5 || speedup > 10.5 {
		t.Fatalf("speedup %v with 10 workers, want ≈10", speedup)
	}
}

func TestSimFarmMasterBottleneck(t *testing.T) {
	// Near-zero compute: the makespan is bounded below by the master's
	// per-task occupancy, so adding workers stops helping — the paper's
	// Table II regime.
	tasks := simTasks(2000, 0.0)
	t4, _ := runSimFarm(t, tasks, 4, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	t64, _ := runSimFarm(t, tasks, 64, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	if t64 < t4/16 {
		t.Fatalf("communication-bound makespan kept scaling: %v -> %v", t4, t64)
	}
}

func TestSimFarmStrategyOrdering(t *testing.T) {
	// Serialized load must beat full load at any worker count (the paper's
	// "only objective comparison": serialized < full always).
	tasks := simTasks(3000, 0.0)
	for _, workers := range []int{1, 4, 16} {
		full, _ := runSimFarm(t, tasks, workers, Options{Strategy: FullLoad}, simnet.DefaultGigE, nil)
		ser, _ := runSimFarm(t, tasks, workers, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
		if ser >= full {
			t.Errorf("%d workers: serialized %v not faster than full %v", workers, ser, full)
		}
	}
}

func TestSimFarmWarmNFSBeatsSerializedAtScale(t *testing.T) {
	// With a warm cache the NFS strategy only costs the master a name
	// send, so at high worker counts it beats serialized load — the
	// crossover the paper observes around 12 CPUs in Table II.
	tasks := simTasks(3000, 0.0)
	names := make([]string, len(tasks))
	for i, task := range tasks {
		names[i] = task.Name
	}
	atWorkers := func(workers int) (nfs, ser float64) {
		// Every worker node reads every file once, as the sweep's
		// earlier rows would have, and the server's clock starts over.
		fs := simnet.NewNFS(simnet.DefaultNFS)
		warm := simnet.NewEngine()
		world := simnet.NewWorld(warm, workers+1, simnet.DefaultGigE)
		for r := 1; r <= workers; r++ {
			world.Go(r, "warm", func(c *simnet.Comm) {
				for _, name := range names {
					fs.Read(c.Proc(), c.Rank(), name, 0)
				}
			})
		}
		if err := warm.Run(); err != nil {
			t.Fatal(err)
		}
		fs.ResetClock()
		nfs, _ = runSimFarm(t, tasks, workers, Options{Strategy: NFSLoad}, simnet.DefaultGigE, fs)
		ser, _ = runSimFarm(t, tasks, workers, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
		return nfs, ser
	}
	nfsLow, serLow := atWorkers(1)
	if nfsLow >= serLow*5 {
		t.Errorf("warm NFS catastrophically slow at 1 worker: %v vs %v", nfsLow, serLow)
	}
	nfsHigh, serHigh := atWorkers(32)
	if nfsHigh >= serHigh {
		t.Errorf("32 workers: warm NFS %v not faster than serialized %v", nfsHigh, serHigh)
	}
}

func TestSimFarmColdNFSSlower(t *testing.T) {
	// A cold cache forces every file through the NFS server: slower than
	// serialized load at low worker counts (Table II row 1: 16.4 s vs
	// 7.2 s).
	tasks := simTasks(2000, 0.0)
	fs := simnet.NewNFS(simnet.DefaultNFS)
	cold, _ := runSimFarm(t, tasks, 1, Options{Strategy: NFSLoad}, simnet.DefaultGigE, fs)
	ser, _ := runSimFarm(t, tasks, 1, Options{Strategy: SerializedLoad}, simnet.DefaultGigE, nil)
	if cold <= ser {
		t.Errorf("cold NFS %v not slower than serialized %v", cold, ser)
	}
}

func TestSimFarmBatchingReducesMakespanWhenCommBound(t *testing.T) {
	// The paper's proposed improvement: bunching tasks cuts per-message
	// latency when communication dominates.
	tasks := simTasks(2000, 0.0)
	single, _ := runSimFarm(t, tasks, 16, Options{Strategy: SerializedLoad, BatchSize: 1}, simnet.DefaultGigE, nil)
	batched, _ := runSimFarm(t, tasks, 16, Options{Strategy: SerializedLoad, BatchSize: 20}, simnet.DefaultGigE, nil)
	if batched >= single {
		t.Errorf("batching did not help: %v vs %v", batched, single)
	}
}

func TestSimFarmDeterministic(t *testing.T) {
	tasks := simTasks(500, 0.01)
	a, _ := runSimFarm(t, tasks, 7, Options{Strategy: FullLoad}, simnet.DefaultGigE, nil)
	b, _ := runSimFarm(t, tasks, 7, Options{Strategy: FullLoad}, simnet.DefaultGigE, nil)
	if a != b {
		t.Fatalf("simulated makespan not deterministic: %v vs %v", a, b)
	}
}

func TestSimFarmHierarchicalCompletes(t *testing.T) {
	const groups = 2
	const workersPerGroup = 4
	const size = 1 + groups + groups*workersPerGroup
	tasks := simTasks(300, 0.01)
	eng := simnet.NewEngine()
	world := simnet.NewWorld(eng, size, simnet.DefaultGigE)
	costs := DefaultSimCosts
	opts := Options{Strategy: SerializedLoad}
	for g := 0; g < groups; g++ {
		sub := g + 1
		workers := HierarchyWorkers(size, groups, g)
		world.Go(sub, fmt.Sprintf("sub-%d", sub), func(c *simnet.Comm) {
			if err := RunSubMaster(c, workers, opts); err != nil {
				t.Errorf("sim sub-master %d: %v", sub, err)
			}
		})
		for _, wr := range workers {
			rank := wr
			master := sub
			world.Go(rank, fmt.Sprintf("w-%d", rank), func(c *simnet.Comm) {
				wopts := opts
				wopts.MasterRank = master
				if err := RunWorker(c, SimExecutor{Comm: c, Costs: costs}, nil, wopts); err != nil {
					t.Errorf("sim worker %d: %v", rank, err)
				}
			})
		}
	}
	var results []Result
	world.Go(0, "root", func(c *simnet.Comm) {
		var err error
		results, err = RunRootMaster(context.Background(), c, tasks, SimLoader{Comm: c, Costs: costs}, opts, groups, 10)
		if err != nil {
			t.Errorf("sim root: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	if len(results) != 300 {
		t.Fatalf("%d results, want 300", len(results))
	}
}
