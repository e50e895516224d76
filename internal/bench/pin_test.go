package bench

import (
	"context"
	"fmt"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/simnet"
	varisk "riskbench/internal/var"
)

// pinTasks is a small heterogeneous workload: varying costs strand work
// on static queues, varying sizes move the per-byte cost terms.
func pinTasks() []farm.Task {
	tasks := make([]farm.Task, 97)
	for i := range tasks {
		tasks[i] = farm.Task{
			Name: fmt.Sprintf("p%03d", i),
			Data: make([]byte, 200+37*(i%11)),
			Cost: 0.002 * float64(1+i%7*i%5),
		}
	}
	return tasks
}

// TestPinnedMakespans pins the simulator to the bit. The virtual
// makespans below were recorded before the three master loops were
// merged into one (PR 15); a scheduling refactor that claims "no
// behaviour change" must reproduce every one of them exactly, so Tables
// I–III and the hierarchical ratio cannot move by accident. A deliberate
// change to the dispatch order or the cost model re-records them.
func TestPinnedMakespans(t *testing.T) {
	want := map[Scheduler]map[farm.Strategy]float64{
		RobinHood: {
			farm.SerializedLoad: 0.08925804727272722,
			farm.FullLoad:       0.09301512727272722,
			farm.NFSLoad:        0.08933263272727268,
		},
		StaticBlock: {
			farm.SerializedLoad: 0.1232541254545454,
			farm.FullLoad:       0.12778694545454536,
			farm.NFSLoad:        0.1281459327272726,
		},
		Hierarchical: {
			farm.SerializedLoad: 0.15457708363636313,
			farm.FullLoad:       0.16838935909090874,
			farm.NFSLoad:        0.1649165236363635,
		},
	}
	for _, sched := range []Scheduler{RobinHood, StaticBlock, Hierarchical} {
		for _, strat := range []farm.Strategy{farm.SerializedLoad, farm.FullLoad, farm.NFSLoad} {
			rc := RunConfig{
				Tasks: pinTasks(), CPUs: 9, Strategy: strat, BatchSize: 2,
				Scheduler: sched, Groups: 2, Chunk: 4, SlowFraction: 0.25,
			}
			if strat == farm.NFSLoad {
				rc.FS = simnet.NewNFS(simnet.DefaultNFS)
			}
			got, err := Run(context.Background(), rc)
			if err != nil {
				t.Fatalf("%v/%v: %v", sched, strat, err)
			}
			if got != want[sched][strat] {
				t.Errorf("%v/%v: makespan %v, pinned %v", sched, strat, got, want[sched][strat])
			}
		}
	}
}

// TestPinnedTableSweep pins a table sweep whose NFS column shares one
// model across rows, as Table II does: TestPinnedMakespans gives every
// run a fresh NFS, so only this pins the cache a row inherits warm from
// the rows before it and the FIFO order of the NFS server's queue.
func TestPinnedTableSweep(t *testing.T) {
	spec := TableSpec{
		Name:       "pinned",
		Portfolio:  portfolio.Toy(400),
		CPUCounts:  []int{2, 4, 8},
		Strategies: []farm.Strategy{farm.FullLoad, farm.NFSLoad, farm.SerializedLoad},
		SharedNFS:  true,
	}
	table, err := RunTableContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]map[farm.Strategy]Cell{
		2: {
			farm.FullLoad:       {Time: 0.32762585176358733, Ratio: 1},
			farm.NFSLoad:        {Time: 0.37439094267268297, Ratio: 1},
			farm.SerializedLoad: {Time: 0.26587385176358463, Ratio: 1},
		},
		4: {
			farm.FullLoad:       {Time: 0.11669457725312674, Ratio: 0.9358499754246545},
			farm.NFSLoad:        {Time: 0.10575916916700702, Ratio: 1.1800109803607117},
			farm.SerializedLoad: {Time: 0.09000230687968694, Ratio: 0.9846927298541314},
		},
		8: {
			farm.FullLoad:       {Time: 0.11541646815590625, Ratio: 0.4055200601517349},
			farm.NFSLoad:        {Time: 0.05689234038721511, Ratio: 0.9400987904134617},
			farm.SerializedLoad: {Time: 0.05366446815590461, Ratio: 0.7077677302796513},
		},
	}
	if len(table.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(table.Rows), len(want))
	}
	for _, row := range table.Rows {
		for _, strat := range spec.Strategies {
			if got, pinned := row.Cells[strat], want[row.CPUs][strat]; got != pinned {
				t.Errorf("%d CPUs, %v: %+v, pinned %+v", row.CPUs, strat, got, pinned)
			}
		}
	}
}

// TestPinnedNestedSweep pins one RunNestedSweep table the same way,
// hierarchical row included.
func TestPinnedNestedSweep(t *testing.T) {
	tasks, err := varisk.SimTasks(portfolio.Toy(40), 8)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunNestedSweep(context.Background(), tasks, []int{2, 8}, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []NestedRow{
		{CPUs: 2, Scheduler: RobinHood, Seconds: 0.1443604427953179, Ratio: 1, TasksPerSec: 2216.6737217183063},
		{CPUs: 8, Scheduler: RobinHood, Seconds: 0.025883988127125584, Ratio: 0.7967443153676529, TasksPerSec: 12362.855307627433},
		{CPUs: 8, Scheduler: Hierarchical, Seconds: 0.061925332261403024, Ratio: 0.33302882110145793, TasksPerSec: 5167.513654173002},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d: %+v, pinned %+v", i, rows[i], w)
		}
	}
}
