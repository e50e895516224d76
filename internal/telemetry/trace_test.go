package telemetry

import (
	"context"
	"strings"
	"testing"
)

// TestTraceContextRoundTrip threads a trace through a context.Context.
func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("empty context claims a trace")
	}
	tc := TraceContext{TraceID: 7, SpanID: 9}
	got, ok := TraceFromContext(ContextWithTrace(ctx, tc))
	if !ok || got != tc {
		t.Fatalf("round trip = %+v, %v; want %+v, true", got, ok, tc)
	}
	// Invalid contexts are not stored.
	if _, ok := TraceFromContext(ContextWithTrace(ctx, TraceContext{})); ok {
		t.Fatal("invalid trace context was stored")
	}
}

// TestStartTraceBuildsTree exercises the single-registry path: a trace
// root, local children, and reassembly via Traces/Roots/Children.
func TestStartTraceBuildsTree(t *testing.T) {
	r := New()
	root := r.StartTrace("serve.request")
	if !root.Context().Valid() {
		t.Fatal("StartTrace minted no trace ID")
	}
	c1 := root.StartChild("farm.task")
	c2 := root.StartChild("farm.task")
	if c1.Context().TraceID != root.Context().TraceID {
		t.Fatal("child did not inherit trace ID")
	}
	c1.End()
	c2.End()
	root.End()

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "serve.request" {
		t.Fatalf("roots = %+v, want single serve.request", roots)
	}
	kids := 0
	for _, s := range tr.Spans {
		if s.ParentID == roots[0].ID {
			kids++
		}
	}
	if kids != 2 {
		t.Fatalf("root has %d children, want 2", kids)
	}
	if _, ok := tr.Find("farm.task"); !ok {
		t.Fatal("Find(farm.task) missed")
	}
}

// TestStartSpanInRemoteParenting plays master and worker with separate
// registries: the worker parents onto a TraceContext that crossed the
// "wire", ships its records back, and the master's table reassembles one
// tree with correct parent links.
func TestStartSpanInRemoteParenting(t *testing.T) {
	master := New()
	worker := New()

	root := master.StartTrace("farm.run")
	task := root.StartChild("farm.task")
	wire := task.Context() // what rides the task descriptor

	compute := worker.StartSpanIn(wire, "farm.compute")
	kernel := compute.StartChild("kernel")
	kernel.End()
	compute.End()
	task.End()
	root.End()

	// Ship the worker's spans back and ingest.
	master.Ingest([]SpanRecord{compute.Record(), kernel.Record()}, nil)

	traces := master.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (run, task, compute, kernel)", len(tr.Spans))
	}
	comp, ok := tr.Find("farm.compute")
	if !ok {
		t.Fatal("worker span missing from master trace")
	}
	if comp.ParentID != task.ID() {
		t.Fatalf("farm.compute parent = %d, want farm.task %d", comp.ParentID, task.ID())
	}
	kern, _ := tr.Find("kernel")
	if kern.ParentID != comp.ID {
		t.Fatalf("kernel parent = %d, want farm.compute %d", kern.ParentID, comp.ID)
	}
	if roots := tr.Roots(); len(roots) != 1 || roots[0].Name != "farm.run" {
		t.Fatalf("roots = %+v, want single farm.run", roots)
	}
	// Worker metrics stayed on the worker: ingestion must not create
	// span aggregates on the master.
	if n := master.SpanCount("farm.compute"); n != 0 {
		t.Fatalf("Ingest leaked into span aggregates: count=%d", n)
	}
}

// TestIngestSpansDedupe re-ingests records already filed by Span.End —
// the shared-registry (in-process farm) shape — and expects no
// duplicates.
func TestIngestSpansDedupe(t *testing.T) {
	r := New()
	root := r.StartTrace("farm.run")
	child := root.StartChild("farm.compute")
	child.End()
	root.End()
	// Same records come back over the local "wire".
	r.Ingest([]SpanRecord{child.Record()}, nil)
	r.Ingest([]SpanRecord{child.Record()}, nil)

	traces := r.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("after re-ingestion: %d traces, %d spans; want 1 trace, 2 spans",
			len(traces), len(traces[0].Spans))
	}
}

// TestIngestClockShift mimics the master normalizing worker clocks: the
// worker's records are shifted before ingestion and the reassembled
// trace nests the compute span inside the task span.
func TestIngestClockShift(t *testing.T) {
	master := New()
	now := 100.0
	master.SetClock(func() float64 { return now })

	root := master.StartTrace("farm.run")
	task := root.StartChild("farm.task")
	sentAt := master.Now()

	// Worker runs on its own clock, offset by +1000s.
	worker := New()
	wnow := 1100.0
	worker.SetClock(func() float64 { return wnow })
	workerRecvAt := worker.Now()
	compute := worker.StartSpanIn(task.Context(), "farm.compute")
	wnow += 2 // compute takes 2s
	compute.End()

	now += 2.5
	task.End()
	root.End()

	shift := sentAt - workerRecvAt
	rec := compute.Record()
	rec.Start += shift
	rec.End += shift
	master.Ingest([]SpanRecord{rec}, nil)

	tr := master.Traces()[0]
	comp, _ := tr.Find("farm.compute")
	tk, _ := tr.Find("farm.task")
	if comp.Start < tk.Start || comp.End > tk.End {
		t.Fatalf("shifted compute [%v,%v] not nested in task [%v,%v]",
			comp.Start, comp.End, tk.Start, tk.End)
	}
	if d := comp.End - comp.Start; d < 1.9 || d > 2.1 {
		t.Fatalf("compute duration %v distorted by shift, want 2", d)
	}
}

// TestSlowestTracesOrder checks descending-duration order and the n cap.
func TestSlowestTracesOrder(t *testing.T) {
	r := New()
	now := 0.0
	r.SetClock(func() float64 { return now })
	durations := []float64{1, 5, 3, 2, 4}
	for _, d := range durations {
		sp := r.StartTrace("run")
		now += d
		sp.End()
	}
	got := r.SlowestTraces(3)
	if len(got) != 3 {
		t.Fatalf("got %d traces, want 3", len(got))
	}
	want := []float64{5, 4, 3}
	for i, tr := range got {
		if tr.Duration() != want[i] {
			t.Fatalf("trace %d duration = %v, want %v", i, tr.Duration(), want[i])
		}
	}
}

// TestTraceTableEviction fills past maxTraces and expects FIFO eviction
// with the table size pinned at the cap.
func TestTraceTableEviction(t *testing.T) {
	r := New()
	var first uint64
	for i := 0; i < maxTraces+10; i++ {
		sp := r.StartTrace("run")
		if i == 0 {
			first = sp.Context().TraceID
		}
		sp.End()
	}
	traces := r.Traces()
	if len(traces) != maxTraces {
		t.Fatalf("table holds %d traces, want cap %d", len(traces), maxTraces)
	}
	for _, tr := range traces {
		if tr.TraceID == first {
			t.Fatal("oldest trace survived FIFO eviction")
		}
	}
}

// TestUntracedSpansStayOut: plain StartSpan spans never enter the table.
func TestUntracedSpansStayOut(t *testing.T) {
	r := New()
	sp := r.StartSpan("background")
	sp.StartChild("sub").End()
	sp.End()
	if traces := r.Traces(); len(traces) != 0 {
		t.Fatalf("untraced spans leaked into the trace table: %+v", traces)
	}
}

// TestRenderTraces smoke-tests the /debug/traces text: header, phase
// line, and indented tree with the child under the root.
func TestRenderTraces(t *testing.T) {
	r := New()
	now := 0.0
	r.SetClock(func() float64 { return now })
	root := r.StartTrace("serve.request")
	child := root.StartChild("farm.task")
	now += 0.25
	child.End()
	root.End()

	out := RenderTraces(r, DefaultTraceCount)
	for _, want := range []string{"1 trace(s) retained", "serve.request", "farm.task", "phases:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The child renders below and more indented than the root.
	ri := strings.Index(out, "serve.request")
	ci := strings.Index(out, "farm.task")
	if ti := strings.LastIndex(out, "farm.task"); ti > ci {
		ci = ti // phase line mentions it first; take the tree line
	}
	if ci < ri {
		t.Errorf("child precedes root in tree render:\n%s", out)
	}
}

// fileTrace files n distinct spans under one fresh trace and returns
// their records.
func fileTrace(r *Registry, n int) []SpanRecord {
	root := r.StartTrace("risk.revalue")
	recs := make([]SpanRecord, 0, n)
	for i := 1; i < n; i++ {
		sp := root.StartChild("farm.task")
		sp.End()
		recs = append(recs, sp.Record())
	}
	root.End()
	return append(recs, root.Record())
}

// spansOf returns how many spans the table retains for a trace, and how
// many it dropped.
func spansOf(t *testing.T, r *Registry, traceID uint64) (kept, dropped int) {
	t.Helper()
	tr, ok := r.Trace(traceID)
	if !ok {
		t.Fatalf("trace %016x not retained", traceID)
	}
	return len(tr.Spans), tr.Dropped
}

// TestTraceDedupeAcrossSizes: deduplication by span ID holds while a
// trace is small enough to scan, across the switch to its ID set, and in
// an entry recycled from an evicted trace of the other size — so
// Ingest of a shared-registry copy stays a no-op at every size.
func TestTraceDedupeAcrossSizes(t *testing.T) {
	r := New()
	for _, n := range []int{smallTrace - 1, smallTrace, smallTrace + 1, 10 * smallTrace} {
		recs := fileTrace(r, n)
		// The shared-registry shape: every record comes back once more
		// with the results, the early ones after the switch to the set.
		r.Ingest(recs, nil)
		if kept, dropped := spansOf(t, r, recs[0].TraceID); kept != n || dropped != 0 {
			t.Errorf("%d-span trace re-ingested: %d kept, %d dropped; want %d and 0", n, kept, dropped, n)
		}
	}
	// Churn the table so every entry is a recycled one. Every third trace
	// is big, and maxTraces is not a multiple of three, so entries pass
	// from big traces to small ones and back: a recycled entry must not
	// remember the IDs, the set or the drops of the trace it held before.
	for i := 0; i < 3*maxTraces; i++ {
		n := 3
		if i%3 == 0 {
			n = 2 * smallTrace
		}
		recs := fileTrace(r, n)
		r.Ingest(recs, nil)
		if kept, dropped := spansOf(t, r, recs[0].TraceID); kept != n || dropped != 0 {
			t.Fatalf("recycled entry %d: %d kept, %d dropped; want %d and 0", i, kept, dropped, n)
		}
	}
	if got := r.Snapshot().Counters["telemetry.trace.spans_dropped"]; got != 0 {
		t.Errorf("telemetry.trace.spans_dropped = %d with no trace full", got)
	}
}

// TestFullTraceCountsDrops: a trace at the span cap turns new and
// duplicate spans away alike — the cap is checked before the dedupe, so
// a drop costs nothing — and says so: on the Trace, on the counter, and
// on /debug/traces.
func TestFullTraceCountsDrops(t *testing.T) {
	r := New()
	const extra = 25
	recs := fileTrace(r, maxTraceSpans+extra)
	id := recs[0].TraceID
	if kept, dropped := spansOf(t, r, id); kept != maxTraceSpans || dropped != extra {
		t.Fatalf("overflowed trace: %d kept, %d dropped; want %d and %d", kept, dropped, maxTraceSpans, extra)
	}
	r.Ingest(recs[:10], nil) // already filed, but the trace is full
	if _, dropped := spansOf(t, r, id); dropped != extra+10 {
		t.Errorf("duplicates offered to a full trace: %d dropped, want %d", dropped, extra+10)
	}
	if got := r.Snapshot().Counters["telemetry.trace.spans_dropped"]; got != extra+10 {
		t.Errorf("telemetry.trace.spans_dropped = %d, want %d", got, extra+10)
	}
	if out := RenderTraces(r, 1); !strings.Contains(out, "35 spans dropped") {
		t.Errorf("/debug/traces does not say the trace overflowed:\n%.300s", out)
	}
	small := fileTrace(r, 3)
	if out := RenderTraces(r, 0); strings.Count(out, "spans dropped") != 1 {
		t.Errorf("trace %016x dropped nothing but /debug/traces says otherwise:\n%.600s", small[0].TraceID, out)
	}
}

// TestSmallTraceAllocs: at steady state (every table entry recycled) a
// serve-sized trace costs its spans and nothing else — filing them
// allocates no set and grows no slice.
func TestSmallTraceAllocs(t *testing.T) {
	r := New()
	const spans = 12
	request := func() {
		root := r.StartTrace("serve.request")
		for i := 1; i < spans; i++ {
			root.StartChild("farm.task").End()
		}
		root.End()
	}
	for i := 0; i < 2*maxTraces; i++ {
		request()
	}
	if got := testing.AllocsPerRun(1000, request); got > spans {
		t.Errorf("a %d-span trace allocates %v, want one per span", spans, got)
	}
}
