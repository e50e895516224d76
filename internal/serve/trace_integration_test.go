package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// TestServeTraceOverTCPFarm is the end-to-end tracing acceptance test: a
// request priced through the full serving path — admission, batcher,
// engine — backed by TCP farm workers that each carry a FRESH telemetry
// registry (so worker spans can only reach the server by riding the farm
// wire) must leave one reassembled span tree on the server containing
// the master-side farm.task spans and the worker-side farm.compute
// spans, parent-linked, and /debug/traces must render it.
func TestServeTraceOverTCPFarm(t *testing.T) {
	reg := telemetry.New()
	eng := &risk.Engine{
		Workers:   2,
		BatchSize: 4,
		Telemetry: reg,
		Backend:   &risk.NetBackend{Transport: "tcp", Spawn: risk.GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, 0)},
	}
	s := New(Config{Engine: eng, Telemetry: reg, CacheSize: -1})
	defer s.Close()

	if w := postJSON(s, "/price", cfBody(100)); w.Code != http.StatusOK {
		t.Fatalf("price: status %d body %s", w.Code, w.Body.String())
	}

	traces := reg.Traces()
	if len(traces) != 1 {
		t.Fatalf("server retains %d traces, want 1", len(traces))
	}
	tr := traces[0]
	byID := make(map[uint64]telemetry.SpanRecord, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	// The request tree must run serve.request → serve.queue and
	// serve.request → … → farm.run → farm.task → farm.compute.
	parentName := func(sp telemetry.SpanRecord) string { return byID[sp.ParentID].Name }
	root, ok := tr.Find("serve.request")
	if !ok {
		t.Fatalf("no serve.request root in trace: %+v", tr.Spans)
	}
	if root.ParentID != 0 {
		t.Fatalf("serve.request has parent %d, want root", root.ParentID)
	}
	if q, ok := tr.Find("serve.queue"); !ok || q.ParentID != root.ID {
		t.Fatalf("serve.queue missing or mis-parented: %+v", q)
	}
	task, ok := tr.Find("farm.task")
	if !ok {
		t.Fatal("no master-side farm.task span in trace")
	}
	if parentName(task) != "farm.run" {
		t.Fatalf("farm.task parent is %q, want farm.run", parentName(task))
	}
	compute, ok := tr.Find("farm.compute")
	if !ok {
		t.Fatal("no worker-side farm.compute span in trace (spans did not cross the wire)")
	}
	if compute.ParentID != task.ID {
		t.Fatalf("farm.compute parent = %d, want farm.task %d", compute.ParentID, task.ID)
	}
	// farm.run must chain up to the serve.request root through the risk
	// layer.
	run, _ := tr.Find("farm.run")
	for sp := run; ; {
		if sp.ParentID == 0 {
			if sp.ID != root.ID {
				t.Fatalf("farm.run chains to root %q, want serve.request", sp.Name)
			}
			break
		}
		parent, ok := byID[sp.ParentID]
		if !ok {
			t.Fatalf("span %q has missing parent %d", sp.Name, sp.ParentID)
		}
		sp = parent
	}

	// /debug/traces renders the reassembled tree.
	w := getPath(s, "/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("debug/traces: status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"serve.request", "farm.task", "farm.compute"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces misses %q:\n%s", want, body)
		}
	}
}

// TestServeTracingDisabled checks the off switch: no traces accumulate,
// pricing is unaffected.
func TestServeTracingDisabled(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg, DisableTracing: true, CacheSize: -1})
	defer s.Close()
	if w := postJSON(s, "/price", cfBody(100)); w.Code != http.StatusOK {
		t.Fatalf("price: status %d body %s", w.Code, w.Body.String())
	}
	if traces := reg.Traces(); len(traces) != 0 {
		t.Fatalf("tracing disabled but %d traces retained", len(traces))
	}
	if reg.SpanCount("farm.compute") == 0 {
		t.Fatal("metrics-side spans should still record with tracing off")
	}
}

// TestBatchRootsOneTrace: a request roots one trace whatever it carries.
// /batch used to let each of its problems mint a serve.request root, so
// one 256-problem request evicted the whole 128-trace table (the /price
// before it included) and counted 256 times in span.serve.request, the
// histogram the latency SLO reads "99 % of requests under 50 ms" from.
// Now the request's root is the only one, and the book under it is one
// serve.queue, one farm.run and a farm.task per problem.
func TestBatchRootsOneTrace(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg, CacheSize: -1})
	defer s.Close()
	if w := postJSON(s, "/price", cfBody(50)); w.Code != http.StatusOK {
		t.Fatalf("price: status %d body %s", w.Code, w.Body.String())
	}
	const problems = 256
	bodies := make([]string, problems)
	for i := range bodies {
		bodies[i] = cfBody(float64(60 + i))
	}
	if w := postJSON(s, "/batch", batchBody(bodies...)); w.Code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", w.Code, w.Body.String())
	}

	if got, want := reg.SpanCount("serve.request"), reg.Counter("serve.requests").Value(); got != 2 || want != 2 {
		t.Errorf("span.serve.request counts %d for %d requests, want 2 and 2", got, want)
	}
	traces := reg.Traces()
	if len(traces) != 2 {
		t.Fatalf("server retains %d traces after one /price and one /batch, want 2", len(traces))
	}
	count := func(tr telemetry.Trace) map[string]int {
		names := map[string]int{}
		for _, sp := range tr.Spans {
			names[sp.Name]++
		}
		return names
	}
	// Both traces hold one serve.queue now; what tells them apart is how
	// many tasks the farm ran under them.
	price, batch := count(traces[0]), count(traces[1])
	if batch["farm.task"] < price["farm.task"] {
		price, batch = batch, price
	}
	if price["serve.request"] != 1 || price["serve.queue"] != 1 || price["farm.run"] != 1 || price["farm.task"] != 1 {
		t.Errorf("the /price trace holds %v, want one serve.request, serve.queue, farm.run and farm.task", price)
	}
	// The book is one group: one queue entry, one flush, one farm round.
	if flushes := int(reg.Histogram("serve.batch.size").Count()) - 1; flushes != 1 {
		t.Errorf("the /batch took %d flushes, want 1", flushes)
	}
	if batch["serve.request"] != 1 || batch["serve.queue"] != 1 || batch["farm.run"] != 1 {
		t.Errorf("the /batch trace holds %d serve.request, %d serve.queue and %d farm.run, want one of each",
			batch["serve.request"], batch["serve.queue"], batch["farm.run"])
	}
	if batch["farm.task"] != problems || traces[0].Dropped+traces[1].Dropped != 0 {
		t.Errorf("the /batch trace holds %d farm.task spans (%d dropped), want %d and none", batch["farm.task"], traces[0].Dropped+traces[1].Dropped, problems)
	}
}

// TestToyReportTraceIsWhole: a full-revaluation report over the toy book
// — the benchmark's var_toy operation, 250 claims × (24 scenarios + base)
// on a default server — fits in its trace. The farm's unit is the sweep,
// one claim under its scenarios, so the report is 250 farm.task →
// farm.compute pairs under one farm.run; a task per cell was 13 000 spans,
// of which the trace kept 4 096 and dropped the rest after building them.
func TestToyReportTraceIsWhole(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg})
	defer s.Close()
	const claims = 250
	body := fmt.Sprintf(`{"portfolio":{"name":"toy","n":%d},"scenarios":{"n":24,"seed":3},"method":"full"}`, claims)
	if w := postJSON(s, "/risk/report", body); w.Code != http.StatusOK {
		t.Fatalf("report: status %d body %s", w.Code, w.Body.String())
	}
	if dropped := reg.Counter("telemetry.trace.spans_dropped").Value(); dropped != 0 {
		t.Errorf("the report dropped %d spans from its trace", dropped)
	}
	if cells := reg.Counter("risk.tasks").Value(); cells != claims*25 {
		t.Errorf("risk.tasks counts %d cells, want %d", cells, claims*25)
	}
	traces := reg.Traces()
	if len(traces) != 1 || traces[0].Dropped != 0 {
		t.Fatalf("server retains %d traces after one report, want 1 with nothing dropped", len(traces))
	}
	name, parent := map[uint64]string{}, map[uint64]uint64{}
	for _, sp := range traces[0].Spans {
		name[sp.ID], parent[sp.ID] = sp.Name, sp.ParentID
	}
	count := map[string]int{}
	for id, n := range name {
		count[n]++
		if want := map[string]string{"farm.compute": "farm.task", "farm.task": "farm.run", "farm.run": "risk.farm"}[n]; want != "" && name[parent[id]] != want {
			t.Errorf("a %s span hangs under %q, want %s", n, name[parent[id]], want)
		}
	}
	if count["serve.risk.report"] != 1 || count["risk.revalue"] != 1 || count["farm.run"] != 1 || count["farm.task"] != claims || count["farm.compute"] != claims {
		t.Errorf("the report's trace holds %v, want one serve.risk.report, risk.revalue and farm.run over %d farm.task and farm.compute", count, claims)
	}
}
