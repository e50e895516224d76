package farm

import (
	"bytes"
	"context"
	"maps"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// sweepTasks is a round of every kind of task a sweep can sit beside: a
// plain problem, two sweeps (cell 1 of "b" is refused: a negative
// volatility) and a sweep of no cells.
func sweepTasks() []Task {
	call := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 95).Set("T", 1)
	a := &premia.Sweep{Base: call, Cells: [][]premia.Override{nil, {{Param: "S0", Value: 90}}, {{Param: "S0", Value: 110}, {Param: "r", Value: 0.05}}, {{Param: "divid", Value: 0.01}}, {{Param: "K", Value: 100}}}}
	b := &premia.Sweep{Base: call.Clone().Set("K", 105), Cells: [][]premia.Override{{{Param: "T", Value: 2}}, {{Param: "sigma", Value: -1}}, nil}}
	return []Task{{Name: "plain", Obj: call.Clone().Set("K", 99)}, {Name: "a", Obj: a}, {Name: "none", Obj: &premia.Sweep{Base: call}}, {Name: "b", Obj: b}}
}

// runHubFarm is runFarm over an inproc hub: the whole wire path, every
// task and result crossing as bytes. Under telemetry each worker keeps a
// registry of its own, as a remote rank would.
func runHubFarm(t *testing.T, exec Executor, tasks []Task, workers int, opts Options) ([]Result, error) {
	t.Helper()
	hub, err := mpi.ListenHubWith("", workers+1, mpi.WorldOptions{Transport: "inproc"})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wc, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{Transport: "inproc"})
		if err != nil {
			t.Fatal(err)
		}
		wopts := opts
		if opts.Telemetry != nil {
			wopts.Telemetry = telemetry.New()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wc.Close()
			_ = RunWorker(wc, exec, nil, wopts) // a master that refuses the round hangs up instead of stopping us
		}()
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	results, err := RunMaster(context.Background(), hub, tasks, LiveLoader{}, opts)
	if err != nil {
		hub.Close()
	}
	wg.Wait()
	return results, err
}

// byName indexes a round's results, failing on a name answered twice.
func byName(t *testing.T, results []Result) map[string]Result {
	t.Helper()
	out := map[string]Result{}
	for _, r := range results {
		if _, dup := out[r.Name]; dup {
			t.Fatalf("task %s answered twice", r.Name)
		}
		out[r.Name] = r
	}
	return out
}

// TestSweepCrossesEverySeam: a sweep is answered by the same block
// whichever side of the by-reference seam its round runs on. By
// reference the worker gets the sweep itself; over a hub the master deals
// its cells — each the problem Cell(k) is, serialized as any problem is,
// in the message its sweep was in — and folds the result hashes back, a
// refused cell into Errs.
func TestSweepCrossesEverySeam(t *testing.T) {
	opts := Options{Strategy: SerializedLoad, BatchSize: 2}
	ref := byName(t, runLocalFarm(t, sweepTasks(), 2, opts, nil))
	if len(ref) != 4 {
		t.Fatalf("%d results by reference, want 4", len(ref))
	}
	for _, task := range sweepTasks()[1:] {
		name, sw := task.Name, task.Obj.(*premia.Sweep)
		block, ok := ref[name].Value.(*PricedBlock)
		if !ok || ref[name].Err != nil || len(block.Results) != len(sw.Cells) || block.Name != name {
			t.Fatalf("sweep %s by reference: %T %+v, err %v", name, ref[name].Value, ref[name].Value, ref[name].Err)
		}
		for k := range sw.Cells {
			res, err := sw.Cell(k).Compute()
			if block.Results[k] != res || (err != nil) != (block.Errs != nil && block.Errs[k] != nil) {
				t.Errorf("%s cell %d: block (%+v, %v), Cell(k).Compute() (%+v, %v)", name, k, block.Results[k], block.Errs, res, err)
			}
		}
	}
	if errs := ref["b"].Value.(*PricedBlock).Errs; len(errs) != 3 || errs[1] == nil || ref["a"].Value.(*PricedBlock).Errs != nil {
		t.Fatalf("refused cells by reference: a %v, b %v", ref["a"].Value.(*PricedBlock).Errs, errs)
	}

	// What the bytes side ships.
	batches, cells := expandSweeps(splitBatches(sweepTasks(), 2))
	var names []string
	for _, b := range batches {
		for _, task := range b {
			names = append(names, task.Name)
		}
		names = append(names, "|")
	}
	if got := strings.Join(names, " "); got != "plain a#0 a#1 a#2 a#3 a#4 | b#0 b#1 b#2 |" || len(cells.refs) != 9 || len(cells.results) != 4 {
		t.Fatalf("dealt %q as %d cells of %d tasks", got, len(cells.refs), len(cells.results))
	}
	a := sweepTasks()[1].Obj.(*premia.Sweep)
	for k := range a.Cells {
		task := batches[0][1+k]
		p, ok := task.Obj.(*premia.Problem)
		if !ok || task.Data != nil || !maps.Equal(p.Params, a.Cell(k).Params) {
			t.Fatalf("cell task %s carries %T %v, want the problem Cell(%d) is", task.Name, task.Obj, task.Obj, k)
		}
		payload, err := LiveLoader{}.Load(task, SerializedLoad)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := a.Cell(k).ToNsp()
		if want, _ := nsp.Serialize(h); !bytes.Equal(payload, want.Data) {
			t.Errorf("cell task %s: payload is not nsp.Serialize(Cell(%d).ToNsp())", task.Name, k)
		}
	}
	if plain, cells := expandSweeps(splitBatches(sweepTasks()[:1], 2)); cells != nil || len(plain) != 1 || plain[0][0].Name != "plain" {
		t.Errorf("a round without sweeps was rewritten: %v", plain)
	}

	// The same round over a hub: the same blocks, a refused cell's error
	// now the master's rank-attributed one.
	t.Run("clean", func(t *testing.T) {
		results, err := runHubFarm(t, LiveExecutor{}, sweepTasks(), 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		wire := byName(t, results)
		if len(wire) != 4 {
			t.Fatalf("%d results over the hub, want 4: %v", len(wire), results)
		}
		p, _ := priceOf(ref["plain"])
		if q, ok := priceOf(wire["plain"]); !ok || p != q {
			t.Errorf("plain task: %v over the hub, %v by reference", q, p)
		}
		for _, name := range []string{"a", "none"} {
			if !wire[name].Value.Equal(ref[name].Value) || wire[name].Err != nil {
				t.Errorf("sweep %s over the hub: %+v (err %v), by reference %+v", name, wire[name].Value, wire[name].Err, ref[name].Value)
			}
		}
		got, want := wire["b"].Value.(*PricedBlock), ref["b"].Value.(*PricedBlock)
		if got.Results[0] != want.Results[0] || got.Results[2] != want.Results[2] || got.Results[1] != (premia.Result{}) ||
			len(got.Errs) != 3 || got.Errs[0] != nil || got.Errs[2] != nil ||
			got.Errs[1] == nil || !strings.Contains(got.Errs[1].Error(), `task "b#1" failed on worker`) || !strings.Contains(got.Errs[1].Error(), want.Errs[1].Error()) {
			t.Errorf("sweep b over the hub: %+v, errors %v; by reference %+v, errors %v", got.Results, got.Errs, want.Results, want.Errs)
		}
	})

	// A task named like a sweep's cell is just another task: results
	// find their tasks by index, on both sides of the seam.
	clash := append(sweepTasks(), Task{Name: "a#3", Obj: sweepTasks()[0].Obj})
	wire, err := runHubFarm(t, LiveExecutor{}, clash, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := runLocalFarm(t, clash, 1, opts, nil)
	for i, task := range clash {
		if wire[i].Name != task.Name || local[i].Name != task.Name {
			t.Errorf("result %d: %s over the hub, %s by reference, for task %s", i, wire[i].Name, local[i].Name, task.Name)
		}
	}
	p, _ := priceOf(local[4])
	if q, ok := priceOf(wire[4]); !ok || p != q || !wire[1].Value.Equal(local[1].Value) {
		t.Errorf("task a#3: %v over the hub, %v by reference; sweep a: %+v, %+v", q, p, wire[1].Value, local[1].Value)
	}
}
