package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// The golden texts below were recorded at the commit before finished
// spans lost their ring and their separate count/total aggregate and
// /debug/traces stopped copying the whole table: what the endpoints
// print is pinned across that change and every later one.

// goldenTraces are two fixed traces as a worker would ship them: a
// request tree with a start-time tie, a repeated name and an orphaned
// subtree (no two phases with one total: the page orders equal totals
// by map iteration), and a slower single-span trace that must render
// first.
var goldenTraces = []SpanRecord{
	{ID: 1, TraceID: 0xab, Name: "serve.request", Start: 0, End: 0.010},
	{ID: 2, ParentID: 1, TraceID: 0xab, Name: "farm.run", Start: 0.001, End: 0.009},
	{ID: 5, ParentID: 2, TraceID: 0xab, Name: "farm.task", Start: 0.002, End: 0.0055},
	{ID: 3, ParentID: 2, TraceID: 0xab, Name: "farm.task", Start: 0.002, End: 0.008},
	{ID: 4, ParentID: 3, TraceID: 0xab, Name: "farm.compute", Start: 0.003, End: 0.0075},
	{ID: 6, ParentID: 99, TraceID: 0xab, Name: "orphan", Start: 0.004, End: 0.0040005},
	{ID: 7, TraceID: 0xcd, Name: "var.full", Start: 1, End: 2.5},
}

const goldenTraceText = `trace 00000000000000ab  10.000ms  6 span(s)
  serve.request                              10.000ms
    farm.run                                  8.000ms
      farm.task                               6.000ms
        farm.compute                          4.500ms
      farm.task                               3.500ms
  orphan                                        0.5µs
`

const goldenTracesPage = `2 trace(s) retained, slowest first

trace 00000000000000cd  1.500s  1 span(s)
  phases: var.full 1.500s (1)
  var.full                                     1.500s

trace 00000000000000ab  10.000ms  6 span(s)
  phases: serve.request 10.000ms (1) farm.task 9.500ms (2) farm.run 8.000ms (1) farm.compute 4.500ms (1) orphan 0.5µs (1)
  serve.request                              10.000ms
    farm.run                                  8.000ms
      farm.task                               6.000ms
        farm.compute                          4.500ms
      farm.task                               3.500ms
  orphan                                        0.5µs
`

func get(h http.Handler, url string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Body.String()
}

func TestTraceHandlerGolden(t *testing.T) {
	r := New()
	r.Ingest(goldenTraces, nil)
	h := TraceHandler(r, DefaultTraceCount)
	if got := get(h, "/debug/traces?trace=00000000000000ab"); got != goldenTraceText {
		t.Errorf("?trace= text changed:\n%s\nwant:\n%s", got, goldenTraceText)
	}
	if got := get(h, "/debug/traces"); got != goldenTracesPage {
		t.Errorf("default page changed:\n%s\nwant:\n%s", got, goldenTracesPage)
	}
}

const goldenSnapshotJSON = `{
  "counters": {
    "tasks": 3,
    "telemetry.trace.spans_dropped": 0
  },
  "histograms": {
    "span.idle": {
      "count": 0,
      "sum": 0,
      "min": 0,
      "max": 0,
      "p50": 0,
      "p95": 0,
      "p99": 0
    },
    "span.sweep": {
      "count": 1,
      "sum": 0.875,
      "min": 0.875,
      "max": 0.875,
      "p50": 0.8646254132807776,
      "p95": 0.8646254132807776,
      "p99": 0.8646254132807776
    },
    "span.task": {
      "count": 3,
      "sum": 0.625,
      "min": 0.125,
      "max": 0.375,
      "p50": 0.1285273366607089,
      "p95": 0.36353020528253416,
      "p99": 0.36353020528253416
    }
  },
  "spans": {
    "sweep": {
      "count": 1,
      "total_seconds": 0.875
    },
    "task": {
      "count": 3,
      "total_seconds": 0.625
    }
  }
}
`

const goldenPrometheus = `# TYPE span_idle summary
span_idle_sum 0
span_idle_count 0
# TYPE span_sweep summary
span_sweep{quantile="0.5"} 0.8646254132807776
span_sweep{quantile="0.95"} 0.8646254132807776
span_sweep{quantile="0.99"} 0.8646254132807776
span_sweep_sum 0.875
span_sweep_count 1
# TYPE span_task summary
span_task{quantile="0.5"} 0.1285273366607089
span_task{quantile="0.95"} 0.36353020528253416
span_task{quantile="0.99"} 0.36353020528253416
span_task_sum 0.625
span_task_count 3
# TYPE sweep_span_seconds_total counter
sweep_span_seconds_total 0.875
# TYPE sweep_spans_total counter
sweep_spans_total 1
# TYPE task_span_seconds_total counter
task_span_seconds_total 0.625
# TYPE task_spans_total counter
task_spans_total 3
# TYPE tasks counter
tasks 3
# TYPE telemetry_trace_spans_dropped counter
telemetry_trace_spans_dropped 0
`

// TestSpanSnapshotGolden finishes a fixed sequence of untraced spans
// under a stepping clock (traced ones would print their random trace IDs
// as exemplars) and pins both exports. The never-observed span.idle
// histogram is the shape an SLO leaves behind before the first request:
// a histogram, not yet a span.
func TestSpanSnapshotGolden(t *testing.T) {
	r := New()
	now := 0.0
	r.SetClock(func() float64 { now += 0.125; return now })
	r.Counter("tasks").Add(3)
	r.Histogram("span.idle")
	root := r.StartSpan("sweep")
	root.StartChild("task").End()
	slow := root.StartChild("task")
	root.StartChild("task").End()
	slow.End()
	root.End()
	if got := get(Handler(r), "/metrics.json"); got != goldenSnapshotJSON {
		t.Errorf("snapshot JSON changed:\n%s\nwant:\n%s", got, goldenSnapshotJSON)
	}
	if got := get(PrometheusHandler(r), "/metrics"); got != goldenPrometheus {
		t.Errorf("Prometheus text changed:\n%s\nwant:\n%s", got, goldenPrometheus)
	}
}

// TestTraceLookupAllocs: reading one trace off a full table costs that
// trace — its copy, its child index and its text — not a copy of the
// table every Span.End would wait behind.
func TestTraceLookupAllocs(t *testing.T) {
	r := New()
	var id uint64
	for i := 0; i < maxTraces; i++ {
		id = fileTrace(r, maxTraceSpans)[0].TraceID
	}
	h := TraceHandler(r, DefaultTraceCount)
	url := fmt.Sprintf("/debug/traces?trace=%016x", id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body := get(h, url)
	runtime.ReadMemStats(&after)
	if len(body) < maxTraceSpans*20 {
		t.Fatalf("rendered %d bytes for a %d-span trace", len(body), maxTraceSpans)
	}
	const oneTrace = maxTraceSpans * 56 // bytes of SpanRecord
	if got := after.TotalAlloc - before.TotalAlloc; got > 20*oneTrace {
		t.Errorf("?trace= on a full table allocated %d bytes, %.1f× one trace (the table is %d×)",
			got, float64(got)/oneTrace, maxTraces)
	}
}
