package farm

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/telemetry"
)

// TestFarmTelemetrySpansMatchTasks runs a live farm with a telemetry
// registry and checks the instrumentation's core invariant: one
// "farm.task" span (master side) and one "farm.compute" span (worker
// side) per task priced, all under a single "farm.run" root.
func TestFarmTelemetrySpansMatchTasks(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) { testTelemetrySpansMatchTasks(t, sched.run) })
	}
}

func testTelemetrySpansMatchTasks(t *testing.T, run masterFunc) {
	const workers = 3
	tasks, want := makePortfolio(t, 40)
	reg := telemetry.New()
	opts := Options{Strategy: SerializedLoad, BatchSize: 4, Telemetry: reg}
	// The run is traced so its finished spans can be read back off the
	// trace table.
	root := reg.StartTrace("test.sweep")
	traced := func(ctx context.Context, c mpi.Comm, tasks []Task, l Loader, o Options) ([]Result, error) {
		return run(telemetry.ContextWithTrace(ctx, root.Context()), c, tasks, l, o)
	}
	results := runFarm(t, traced, LiveExecutor{}, tasks, workers, opts, nil)
	root.End()
	checkResults(t, results, want)

	n := int64(len(tasks))
	if got := reg.Snapshot().Spans["farm.run"].Count; got != 1 {
		t.Errorf("farm.run spans = %d, want 1", got)
	}
	if got := reg.Snapshot().Spans["farm.task"].Count; got != n {
		t.Errorf("farm.task spans = %d, want %d", got, n)
	}
	if got := reg.Snapshot().Spans["farm.compute"].Count; got != n {
		t.Errorf("farm.compute spans = %d, want %d", got, n)
	}
	if got := reg.Histogram("farm.task_seconds").Count(); got != n {
		t.Errorf("farm.task_seconds count = %d, want %d", got, n)
	}
	if got := reg.Histogram("farm.queue_wait_seconds").Count(); got != n {
		t.Errorf("farm.queue_wait_seconds count = %d, want %d", got, n)
	}
	if got := reg.Counter("farm.tasks_completed").Value(); got != n {
		t.Errorf("farm.tasks_completed = %d, want %d", got, n)
	}
	if got := reg.Counter("farm.task_errors").Value(); got != 0 {
		t.Errorf("farm.task_errors = %d, want 0", got)
	}
	var perWorker int64
	for r := 1; r <= workers; r++ {
		perWorker += reg.Counter("farm.worker." + strconv.Itoa(r) + ".tasks").Value()
	}
	if perWorker != n {
		t.Errorf("per-worker task counters sum to %d, want %d", perWorker, n)
	}

	// Every finished farm.task span must link to the farm.run root.
	tr, _ := reg.Trace(root.Context().TraceID)
	runSpan, ok := findSpan(tr, "farm.run")
	if !ok {
		t.Fatal("no finished farm.run span recorded")
	}
	runID := runSpan.ID
	taskSpans := 0
	for _, rec := range tr.Spans {
		if rec.Name != "farm.task" {
			continue
		}
		taskSpans++
		if rec.ParentID != runID {
			t.Fatalf("farm.task span %d has parent %d, want farm.run %d", rec.ID, rec.ParentID, runID)
		}
		if rec.End < rec.Start {
			t.Fatalf("farm.task span %d ends (%v) before it starts (%v)", rec.ID, rec.End, rec.Start)
		}
	}
	if int64(taskSpans) != n {
		t.Errorf("finished farm.task records = %d, want %d", taskSpans, n)
	}
}

// TestFarmMasterCancelled checks the cooperative-cancellation contract: a
// cancelled master dispatches nothing, still stops its workers (so they
// exit cleanly), and reports the context's error.
func TestFarmMasterCancelled(t *testing.T) { testMasterCancelled(t, RunMaster) }

// TestStaticMasterCancelled is the same contract under the static
// assignment policy.
func TestStaticMasterCancelled(t *testing.T) { testMasterCancelled(t, RunStaticMaster) }

func testMasterCancelled(t *testing.T, run masterFunc) {
	const workers = 2
	tasks, _ := makePortfolio(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := mpi.NewLocalWorld(workers + 1)
	defer w.Close()
	opts := Options{Strategy: SerializedLoad}
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := RunWorker(w.Comm(rank), LiveExecutor{}, nil, opts); err != nil {
				t.Errorf("worker %d: %v", rank, err)
			}
		}(r)
	}
	_, err := run(ctx, w.Comm(0), tasks, LiveLoader{}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled master returned %v, want context.Canceled", err)
	}
	wg.Wait() // workers must have received the stop message
}

// TestFarmDistributedTrace runs master and workers on SEPARATE
// registries — the separate-process shape — under a traced context, and
// checks that the master reassembles one complete span tree: worker-side
// farm.compute spans travel back over the wire and parent onto the
// master's farm.task spans.
func TestFarmDistributedTrace(t *testing.T) {
	const workers = 3
	tasks, want := makePortfolio(t, 12)
	master := telemetry.New()
	w := mpi.NewLocalWorld(workers + 1)
	defer w.Close()
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wopts := Options{Strategy: SerializedLoad, BatchSize: 2, Telemetry: telemetry.New()}
			if err := RunWorker(w.Comm(rank), LiveExecutor{}, nil, wopts); err != nil {
				t.Errorf("worker %d: %v", rank, err)
			}
		}(r)
	}
	root := master.StartTrace("bench.run")
	ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
	opts := Options{Strategy: SerializedLoad, BatchSize: 2, Telemetry: master}
	results, err := RunMaster(ctx, w.Comm(0), tasks, LiveLoader{}, opts)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	root.End()
	wg.Wait()
	checkResults(t, results, want)

	traces := master.SlowestTraces(0)
	if len(traces) != 1 {
		t.Fatalf("master retains %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != root.Context().TraceID {
		t.Fatalf("trace ID %x, want %x", tr.TraceID, root.Context().TraceID)
	}
	byID := make(map[uint64]telemetry.SpanRecord, len(tr.Spans))
	count := map[string]int{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
		count[s.Name]++
	}
	n := len(tasks)
	if count["farm.task"] != n || count["farm.compute"] != n {
		t.Fatalf("span counts %v, want %d farm.task and %d farm.compute", count, n, n)
	}
	if count["farm.run"] != 1 || count["bench.run"] != 1 {
		t.Fatalf("span counts %v, want one farm.run under one bench.run", count)
	}
	// Every worker-side span must link onto a master-side span of the
	// right kind, and nest within it on the master clock.
	for _, s := range tr.Spans {
		switch s.Name {
		case "farm.compute":
			parent, ok := byID[s.ParentID]
			if !ok || parent.Name != "farm.task" {
				t.Fatalf("farm.compute parent = %+v, want a farm.task span", parent)
			}
			if s.Start < parent.Start || s.End > parent.End {
				t.Errorf("farm.compute [%v,%v] not nested in farm.task [%v,%v]",
					s.Start, s.End, parent.Start, parent.End)
			}
		case "farm.fetch":
			if parent, ok := byID[s.ParentID]; !ok || parent.Name != "farm.task" {
				t.Fatalf("farm.fetch parent = %+v, want a farm.task span", parent)
			}
		case "farm.task", "farm.dispatch":
			if parent, ok := byID[s.ParentID]; !ok || parent.Name != "farm.run" {
				t.Fatalf("%s parent = %+v, want the farm.run span", s.Name, parent)
			}
		case "farm.run":
			if s.ParentID != root.ID() {
				t.Fatalf("farm.run parent = %d, want bench.run %d", s.ParentID, root.ID())
			}
		}
	}
}

// TestTraceReachesEveryRank: a traced round holds every rank's spans in
// the request's trace whatever the layout. Sub-masters used to run their
// groups under a context of their own, so a hierarchical round's
// farm.compute spans — and the sub-masters' farm.run — fell outside the
// trace and no farm.fetch span was opened at all.
func TestTraceReachesEveryRank(t *testing.T) {
	const n, chunk = 32, 8
	tasks, want := makePortfolio(t, n)
	for _, groups := range []int{0, 2} {
		reg := telemetry.New()
		root := reg.StartTrace("test.request")
		ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
		opts := Options{Strategy: SerializedLoad, BatchSize: 4, Telemetry: reg}
		var results []Result
		var err error
		if groups == 0 {
			results, err = Local{}.Run(ctx, tasks, opts, 6)
		} else {
			results, err = runHierarchy(ctx, t, tasks, opts, nil, groups, 6, chunk)
		}
		if err != nil {
			t.Fatalf("groups %d: %v", groups, err)
		}
		root.End()
		checkResults(t, results, want)
		tr, ok := reg.Trace(root.Context().TraceID)
		if !ok {
			t.Fatalf("groups %d: the request's trace is gone", groups)
		}
		count := map[string]int{}
		for _, s := range tr.Spans {
			count[s.Name]++
		}
		// Flat: one run, a task span per task, a fetch per batch of four.
		// Hierarchical: the root's run and task spans, plus a run per chunk
		// and a task span and a single-task fetch per task in the groups.
		wantCount := map[string]int{"farm.run": 1, "farm.task": n, "farm.compute": n, "farm.fetch": n / 4}
		if groups > 0 {
			wantCount = map[string]int{"farm.run": 1 + n/chunk, "farm.task": 2 * n, "farm.compute": n, "farm.fetch": n}
		}
		for name, want := range wantCount {
			if count[name] != want {
				t.Errorf("groups %d: %d %s spans in the request's trace, want %d (census %v)", groups, count[name], name, want, count)
			}
		}
	}
}

// findSpan returns the first span of tr with the given name.
func findSpan(tr telemetry.Trace, name string) (telemetry.SpanRecord, bool) {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.SpanRecord{}, false
}
