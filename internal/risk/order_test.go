package risk

import (
	"context"
	"math"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
)

// TestRoundAnswersInTaskOrder: a round's answer is the same list under
// every configuration. The regression book priced in every shape gives
// result i for task i, at the same bits, so the running sum riskbench
// -live, farmworker and examples/portfolio print is bit-equal too,
// whichever worker answered first.
func TestRoundAnswersInTaskOrder(t *testing.T) {
	tasks, err := portfolio.Regression().Tasks()
	if err != nil {
		t.Fatal(err)
	}
	// A goroutine world of 1, 2 and 4 workers, and goroutine workers
	// over the inproc and unix wires.
	backends := []struct {
		name    string
		backend FarmBackend
		workers int
	}{
		{"local/1", LocalBackend{}, 1},
		{"local/2", LocalBackend{}, 2},
		{"local/4", LocalBackend{}, 4},
		{"inproc", &NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)}, 2},
		{"unix", &NetBackend{Transport: "unix", Spawn: GoNetWorkers(nil, 0)}, 2},
	}
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: 4}
	var want []uint64
	var wantSum float64
	for _, c := range backends {
		results, err := c.backend.Run(context.Background(), tasks, opts, c.workers)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(results) != len(tasks) {
			t.Fatalf("%s: %d results for %d tasks", c.name, len(results), len(tasks))
		}
		bits, sum := make([]uint64, len(results)), 0.0
		for i, r := range results {
			p, err := farm.AsPriced(r)
			if err != nil || r.Err != nil || r.Name != tasks[i].Name {
				t.Fatalf("%s: result %d is %s (%v, %v), want task %s priced", c.name, i, r.Name, err, r.Err, tasks[i].Name)
			}
			bits[i] = math.Float64bits(p.Result.Price)
			sum += p.Result.Price
		}
		if want == nil {
			want, wantSum = bits, sum
			continue
		}
		for i := range bits {
			if bits[i] != want[i] {
				t.Errorf("%s: task %s priced %x, %x on %s", c.name, tasks[i].Name, bits[i], want[i], backends[0].name)
			}
		}
		if math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Errorf("%s: running sum %v, %v on %s", c.name, sum, wantSum, backends[0].name)
		}
	}
}

// TestSweepRoundAnswersInTaskOrder: over the hub a round's sweeps are
// dealt as cells and folded back, each block at its sweep's index,
// between the round's plain problems, as a round by reference answers.
func TestSweepRoundAnswersInTaskOrder(t *testing.T) {
	items := portfolio.Regression().Items[:12]
	tasks := make([]farm.Task, len(items))
	for i, it := range items {
		tasks[i] = farm.Task{Name: it.Name, Obj: it.Problem}
		if i%3 != 0 {
			tasks[i].Obj = &premia.Sweep{Base: it.Problem, Cells: make([][]premia.Override, i%3+1)}
		}
	}
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: 2}
	ref, err := LocalBackend{}.Run(context.Background(), tasks, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := (&NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)}).Run(context.Background(), tasks, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(tasks) || len(wire) != len(tasks) {
		t.Fatalf("%d results by reference, %d over the hub, for %d tasks", len(ref), len(wire), len(tasks))
	}
	for i, task := range tasks {
		if wire[i].Name != task.Name || ref[i].Name != task.Name {
			t.Fatalf("result %d: %s over the hub, %s by reference, for task %s", i, wire[i].Name, ref[i].Name, task.Name)
		}
		if sw, sweep := task.Obj.(*premia.Sweep); sweep {
			if b, ok := wire[i].Value.(*farm.PricedBlock); !ok || b.Errs != nil || len(b.Results) != len(sw.Cells) || !b.Equal(ref[i].Value) {
				t.Errorf("sweep %s: %+v over the hub, %+v by reference", task.Name, wire[i].Value, ref[i].Value)
			}
			continue
		}
		p, err := farm.AsPriced(ref[i])
		q, qerr := farm.AsPriced(wire[i])
		if err != nil || qerr != nil || p.Result.Price != q.Result.Price {
			t.Errorf("task %s: %+v over the hub, %+v by reference", task.Name, q, p)
		}
	}
}
