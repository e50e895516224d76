package telemetry

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Exposition-format line grammar: a TYPE comment or a sample line
// `name{label="value",...} value`, where value is a number or the
// exposition tokens +Inf/-Inf (NaN never appears: the exporter drops
// NaN samples instead of poisoning aggregations).
var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (-?[0-9]|[+-]Inf).*$`)
)

func renderProm(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestPrometheusLineSyntax checks that every emitted line parses under
// the text exposition grammar, across all metric kinds.
func TestPrometheusLineSyntax(t *testing.T) {
	r := New()
	r.Counter("serve.requests").Add(42)
	r.Counter("mpi.rank3.msgs_sent").Add(7)
	r.Gauge("farm.worker.2.busy_seconds").Add(1.25)
	r.Observe("serve.request_seconds", 0.01)
	r.Observe("serve.request_seconds", 0.03)
	sp := r.StartSpan("farm.compute")
	sp.End()
	out := renderProm(t, r)
	if out == "" {
		t.Fatal("empty exposition")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promTypeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
		}
	}
}

// TestPrometheusDeterministicOrder renders the same registry twice and
// expects byte-identical output, with family TYPE headers preceding
// their samples exactly once.
func TestPrometheusDeterministicOrder(t *testing.T) {
	r := New()
	for _, name := range []string{"b.z", "a.y", "c.x", "mpi.rank1.n", "mpi.rank0.n"} {
		r.Counter(name).Add(1)
	}
	r.Observe("lat.a", 0.5)
	r.Observe("lat.b", 0.25)
	first := renderProm(t, r)
	if second := renderProm(t, r); first != second {
		t.Fatalf("non-deterministic output:\n--- first\n%s--- second\n%s", first, second)
	}
	seenTypes := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimRight(first, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(name)[0]
			if seenTypes[fam] {
				t.Errorf("family %s declared twice", fam)
			}
			seenTypes[fam] = true
			current = fam
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !strings.HasPrefix(name, current) {
			t.Errorf("sample %q outside its family %q", line, current)
		}
	}
}

// TestPrometheusSummaryQuantiles checks the summary rendering of a
// histogram: quantile lines for 0.5/0.95/0.99 plus _sum and _count.
func TestPrometheusSummaryQuantiles(t *testing.T) {
	r := New()
	for i := 1; i <= 100; i++ {
		r.Observe("task.seconds", float64(i)/100)
	}
	out := renderProm(t, r)
	if !strings.Contains(out, "# TYPE task_seconds summary\n") {
		t.Errorf("no summary TYPE line:\n%s", out)
	}
	for _, q := range []string{`task_seconds{quantile="0.5"} `, `task_seconds{quantile="0.95"} `, `task_seconds{quantile="0.99"} `} {
		if !strings.Contains(out, q) {
			t.Errorf("missing quantile line %q in:\n%s", q, out)
		}
	}
	if !strings.Contains(out, "task_seconds_count 100\n") {
		t.Errorf("missing _count line:\n%s", out)
	}
	if !strings.Contains(out, "task_seconds_sum ") {
		t.Errorf("missing _sum line:\n%s", out)
	}
}

// TestPrometheusRankFolding checks that the unbounded per-rank name
// schemes fold into a rank label while the aggregate series keeps the
// bare name, under one family.
func TestPrometheusRankFolding(t *testing.T) {
	r := New()
	r.Counter("mpi.msgs_sent").Add(12)
	r.Counter("mpi.rank0.msgs_sent").Add(7)
	r.Counter("mpi.rank13.msgs_sent").Add(5)
	r.Counter("farm.worker.3.tasks").Add(9)
	r.Gauge("farm.worker.3.busy_seconds").Add(0.5)
	out := renderProm(t, r)
	for _, want := range []string{
		"mpi_msgs_sent 12\n",
		`mpi_msgs_sent{rank="0"} 7` + "\n",
		`mpi_msgs_sent{rank="13"} 5` + "\n",
		`farm_worker_tasks{rank="3"} 9` + "\n",
		`farm_worker_busy_seconds{rank="3"} 0.5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rank13") || strings.Contains(out, "worker_3") {
		t.Errorf("unfolded rank name survived:\n%s", out)
	}
	// One family: exactly one TYPE line for mpi_msgs_sent.
	if got := strings.Count(out, "# TYPE mpi_msgs_sent "); got != 1 {
		t.Errorf("mpi_msgs_sent declared %d times, want 1", got)
	}
}

// TestPrometheusNonFinite checks the non-finite guards: a NaN gauge
// vanishes from the exposition entirely (no sample, no orphan TYPE
// line) while ±Inf render as the exposition tokens, and every emitted
// line still parses.
func TestPrometheusNonFinite(t *testing.T) {
	r := New()
	r.Gauge("g.nan").Set(math.NaN())
	r.Gauge("g.posinf").Set(math.Inf(1))
	r.Gauge("g.neginf").Set(math.Inf(-1))
	r.Gauge("g.ok").Set(1.5)
	out := renderProm(t, r)
	if strings.Contains(out, "g_nan") || strings.Contains(out, "NaN") {
		t.Errorf("NaN gauge leaked into exposition:\n%s", out)
	}
	for _, want := range []string{"g_posinf +Inf\n", "g_neginf -Inf\n", "g_ok 1.5\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
		}
	}
}

// TestPrometheusEmptyHistogram checks that a registered but never
// observed histogram exports only its _sum/_count companions: a
// quantile line would invent an observation that never happened.
func TestPrometheusEmptyHistogram(t *testing.T) {
	r := New()
	r.Histogram("h.cold")
	out := renderProm(t, r)
	if strings.Contains(out, "h_cold{quantile=") {
		t.Errorf("empty histogram emitted quantile lines:\n%s", out)
	}
	for _, want := range []string{"h_cold_count 0\n", "h_cold_sum 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestPrometheusExemplarLine checks the OpenMetrics exemplar suffix on
// summary quantile lines: trace-linked observations surface as
// ` # {trace_id="<16hex>"} value timestamp` and still parse under the
// sample grammar.
func TestPrometheusExemplarLine(t *testing.T) {
	r := New()
	clk := 0.0
	r.SetClock(func() float64 { return clk })
	for i := 1; i <= 100; i++ {
		clk = float64(i)
		r.Histogram("lat.req").ObserveExemplar(float64(i)/100, uint64(i), clk)
	}
	out := renderProm(t, r)
	found := false
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "lat_req{quantile=") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("bad exemplar sample line: %q", line)
		}
		if strings.Contains(line, ` # {trace_id="`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no quantile line carries an exemplar:\n%s", out)
	}
	if !strings.Contains(out, `trace_id="0000000000000`) {
		t.Errorf("exemplar trace not rendered as 16-hex:\n%s", out)
	}
}

// TestPrometheusHandlerConcurrent scrapes the handler while writers
// hammer the registry — the exporter's counterpart of the JSON
// handler's concurrent-writers test; run with -race.
func TestPrometheusHandlerConcurrent(t *testing.T) {
	r := New()
	srv := httptest.NewServer(PrometheusHandler(r))
	defer srv.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c.hot").Add(1)
				r.Observe("h.hot", float64(i%100)/100)
				r.Gauge("mpi.rank" + string(rune('0'+w)) + ".g").Set(float64(i))
				sp := r.StartTrace("w.span")
				sp.StartChild("w.child").End()
				sp.End()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		for _, line := range strings.Split(strings.TrimRight(string(body[:n]), "\n"), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !promSampleRe.MatchString(line) {
				t.Fatalf("bad sample line under load: %q", line)
			}
		}
	}
	close(stop)
	wg.Wait()
}
