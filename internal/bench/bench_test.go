package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/simnet"
)

func uniformTasks(n int, cost float64) []farm.Task {
	tasks := make([]farm.Task, n)
	for i := range tasks {
		tasks[i] = farm.Task{Name: fmt.Sprintf("u%05d", i), Data: make([]byte, 300), Cost: cost}
	}
	return tasks
}

func TestRunRejectsBadConfigs(t *testing.T) {
	tasks := uniformTasks(10, 1)
	if _, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 1, Strategy: farm.SerializedLoad}); err == nil {
		t.Error("1 CPU accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 4, Strategy: farm.NFSLoad}); err == nil {
		t.Error("NFS without FS accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 5, Strategy: farm.SerializedLoad, Scheduler: Hierarchical, Groups: 4}); err == nil {
		t.Error("hierarchy without enough CPUs accepted")
	}
}

func TestRunLinearRegime(t *testing.T) {
	// Long tasks, few workers: near-perfect speedup ratio, like the top
	// rows of every table.
	tasks := uniformTasks(400, 1.0)
	t2, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 2, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 8, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	ratio := t2 / (7 * t8)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("speedup ratio %v in the linear regime, want ≈1", ratio)
	}
}

func TestTableIShape(t *testing.T) {
	spec := TableI()
	spec.MaxCPUs = 64
	tbl, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cpus int) Cell {
		for _, r := range tbl.Rows {
			if r.CPUs == cpus {
				return r.Cells[farm.SerializedLoad]
			}
		}
		t.Fatalf("row %d missing", cpus)
		return Cell{}
	}
	// Paper: almost linear for <= 16 CPUs, collapsing afterwards.
	if r := get(16).Ratio; r < 0.8 {
		t.Errorf("ratio at 16 CPUs = %v, want near-linear (>0.8)", r)
	}
	if r64, r16 := get(64).Ratio, get(16).Ratio; r64 > 0.65*r16 {
		t.Errorf("no collapse: ratio 64 = %v vs 16 = %v", r64, r16)
	}
	// Monotone makespan.
	prev := get(2).Time
	for _, cpus := range []int{4, 6, 8, 10, 16, 32, 64} {
		cur := get(cpus).Time
		if cur > prev*1.01 {
			t.Errorf("makespan increased at %d CPUs: %v -> %v", cpus, prev, cur)
		}
		prev = cur
	}
}

func TestTableIIShape(t *testing.T) {
	spec := TableII()
	spec.Portfolio = portfolio.Toy(3000) // smaller for test speed, same regime
	spec.MaxCPUs = 16
	tbl, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		full := row.Cells[farm.FullLoad].Time
		ser := row.Cells[farm.SerializedLoad].Time
		if ser >= full {
			t.Errorf("%d CPUs: serialized %v not faster than full %v (the paper's only objective comparison)",
				row.CPUs, ser, full)
		}
	}
	// Cold first row: NFS slower than serialized; warm later rows at high
	// CPU counts: NFS faster (the paper's crossover).
	first := tbl.Rows[0]
	if first.Cells[farm.NFSLoad].Time <= first.Cells[farm.SerializedLoad].Time {
		t.Errorf("cold NFS %v not slower than serialized %v",
			first.Cells[farm.NFSLoad].Time, first.Cells[farm.SerializedLoad].Time)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Cells[farm.NFSLoad].Time >= last.Cells[farm.SerializedLoad].Time {
		t.Errorf("warm NFS %v not faster than serialized %v at %d CPUs",
			last.Cells[farm.NFSLoad].Time, last.Cells[farm.SerializedLoad].Time, last.CPUs)
	}
}

func TestTableIIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full realistic sweep is slow")
	}
	spec := TableIII()
	spec.MaxCPUs = 128
	tbl, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for _, s := range spec.Strategies {
			c := row.Cells[s]
			// Paper: "computation times are fairly the same no matter how
			// the objects are sent" and ratios stay above 0.8 well past
			// 100 CPUs.
			if row.CPUs <= 128 && c.Ratio < 0.8 {
				t.Errorf("%d CPUs %v: ratio %v below the paper's >0.8 regime", row.CPUs, s, c.Ratio)
			}
		}
		full := row.Cells[farm.FullLoad].Time
		ser := row.Cells[farm.SerializedLoad].Time
		if diff := (full - ser) / full; diff < -0.05 || diff > 0.25 {
			t.Errorf("%d CPUs: strategies diverge too much: full %v vs serialized %v", row.CPUs, full, ser)
		}
	}
}

func TestSchedulingAblation(t *testing.T) {
	// Heterogeneous costs: Robin Hood must beat static assignment.
	pf := portfolio.Regression()
	tasks, err := pf.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad, Scheduler: StaticBlock})
	if err != nil {
		t.Fatal(err)
	}
	if dyn >= static {
		t.Errorf("Robin Hood %v not faster than static %v on heterogeneous tasks", dyn, static)
	}
}

func TestHierarchicalAblation(t *testing.T) {
	// Communication-bound workload at high CPU counts: sub-masters relieve
	// the root (the paper's proposed improvement).
	tasks := uniformTasks(4000, 0.0)
	flat, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 65, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 65, Strategy: farm.SerializedLoad,
		Scheduler: Hierarchical, Groups: 4, Chunk: 32})
	if err != nil {
		t.Fatal(err)
	}
	if hier >= flat {
		t.Errorf("hierarchy %v not faster than flat %v on a communication-bound workload", hier, flat)
	}
}

func TestBatchingAblation(t *testing.T) {
	tasks := uniformTasks(4000, 0.0)
	single, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 17, Strategy: farm.SerializedLoad, BatchSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	if batched >= single {
		t.Errorf("batch 25 %v not faster than batch 1 %v", batched, single)
	}
}

func TestRunDeterministic(t *testing.T) {
	tasks := uniformTasks(500, 0.02)
	a, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.FullLoad})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.FullLoad})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestNFSClockResetAcrossRuns(t *testing.T) {
	// Regression test for the stale-server-clock bug: reusing one NFS
	// model across engine runs must not stall the second run.
	tasks := uniformTasks(200, 0.001)
	fs := simnet.NewNFS(simnet.DefaultNFS)
	t1, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 4, Strategy: farm.NFSLoad, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 4, Strategy: farm.NFSLoad, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if t2 > t1 {
		t.Fatalf("warm rerun slower than cold run: %v vs %v", t2, t1)
	}
}

func TestFormatContainsPaperLabels(t *testing.T) {
	spec := TableII()
	spec.Portfolio = portfolio.Toy(50)
	spec.MaxCPUs = 4
	tbl, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Format()
	for _, want := range []string{"Table II", "full load", "NFS", "serialized load", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestSchedulerStrings(t *testing.T) {
	if RobinHood.String() != "robin-hood" || StaticBlock.String() != "static" || Hierarchical.String() != "hierarchical" {
		t.Error("scheduler names wrong")
	}
	if Scheduler(9).String() == "" {
		t.Error("unknown scheduler empty")
	}
}

func TestCompressionAblation(t *testing.T) {
	pf := portfolio.Toy(2000)
	tasks, err := pf.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	ctasks, err := CompressTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	var rawB, compB int
	for i := range tasks {
		rawB, compB = rawB+len(tasks[i].Data), compB+len(ctasks[i].Data)
	}
	if compB >= rawB {
		t.Fatalf("compression did not shrink payloads: %d -> %d", rawB, compB)
	}
	// On a bandwidth-starved link the compressed payloads win.
	slow := simnet.LinkConfig{Latency: 80e-6, Bandwidth: 1e6, SendOverhead: 25e-6, RecvOverhead: 25e-6}
	raw, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.SerializedLoad, Link: slow})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(context.Background(), RunConfig{Tasks: ctasks, CPUs: 9, Strategy: farm.SerializedLoad, Link: slow})
	if err != nil {
		t.Fatal(err)
	}
	if comp >= raw {
		t.Errorf("compressed payloads %v not faster than raw %v on a slow link", comp, raw)
	}
}

func TestSlowNodesDegradeSpeedup(t *testing.T) {
	tasks := uniformTasks(400, 0.5)
	clean, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.SerializedLoad,
		SlowFraction: 0.5, SlowFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if hetero <= clean {
		t.Errorf("heterogeneous run %v not slower than clean %v", hetero, clean)
	}
	// Robin Hood adapts: makespan stays below the all-slow worst case
	// (every task at half speed would double the clean time).
	if hetero >= 2*clean {
		t.Errorf("Robin Hood failed to adapt: %v vs clean %v", hetero, clean)
	}
	// Static assignment on the same heterogeneous cluster is hurt more.
	static, err := Run(context.Background(), RunConfig{Tasks: tasks, CPUs: 9, Strategy: farm.SerializedLoad,
		Scheduler: StaticBlock, SlowFraction: 0.5, SlowFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if static <= hetero {
		t.Errorf("static %v not slower than Robin Hood %v on slow nodes", static, hetero)
	}
}

func TestRunWithStatsUtilization(t *testing.T) {
	// Compute-bound run: workers near fully busy; master barely busy.
	tasks := uniformTasks(400, 1.0)
	stats, err := RunWithStats(context.Background(), RunConfig{Tasks: tasks, CPUs: 5, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.WorkerUtilization) != 4 {
		t.Fatalf("%d utilization entries", len(stats.WorkerUtilization))
	}
	if stats.MeanUtilization < 0.95 {
		t.Errorf("compute-bound mean utilization %v, want ≈1", stats.MeanUtilization)
	}
	if stats.MasterBusy > 0.1*stats.Makespan {
		t.Errorf("master busy %v of %v on a compute-bound run", stats.MasterBusy, stats.Makespan)
	}
	// Communication-bound run: workers mostly idle (the paper's "many
	// nodes are waiting for some more work to do").
	idleTasks := uniformTasks(2000, 0.0)
	idle, err := RunWithStats(context.Background(), RunConfig{Tasks: idleTasks, CPUs: 33, Strategy: farm.SerializedLoad})
	if err != nil {
		t.Fatal(err)
	}
	if idle.MeanUtilization > 0.3 {
		t.Errorf("communication-bound mean utilization %v, want low", idle.MeanUtilization)
	}
}

func TestRunWithStatsRejectsHierarchical(t *testing.T) {
	if _, err := RunWithStats(context.Background(), RunConfig{Tasks: uniformTasks(5, 1), CPUs: 7, Scheduler: Hierarchical}); err == nil {
		t.Fatal("hierarchical accepted")
	}
}
