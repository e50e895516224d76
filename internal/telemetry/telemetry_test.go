package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Counter("c").Add(4)
	if got := r.Counter("c").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Add(1)
	r.Observe("h", 1)
	r.SetClock(func() float64 { return 1 })
	sp := r.StartSpan("s")
	sp.StartChild("t").End()
	sp.End()
	if n := r.SpanCount("s"); n != 0 {
		t.Errorf("nil registry counted %d spans", n)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestHistogramQuantilesConcurrent drives many writers into one
// histogram and checks the quantile estimates against the exact values
// of the written distribution, within the bucket scheme's relative
// error. Run with -race, per the telemetry test plan.
func TestHistogramQuantilesConcurrent(t *testing.T) {
	h := new(Histogram)
	const writers = 8
	const perWriter = 5000
	// Deterministic values: v(i) spread log-uniformly over ~4 decades.
	value := func(i int) float64 {
		return 1e-6 * math.Pow(10, 4*float64(i)/float64(perWriter))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(value(i))
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(writers*perWriter); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Every writer wrote the same values, so the q-quantile of the
	// histogram is the q-quantile of value(0..perWriter-1).
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := value(int(q * (perWriter - 1)))
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.10 {
			t.Errorf("q%.0f = %g, want ≈%g (rel err %.3f)", q*100, got, exact, rel)
		}
	}
	if h.Min() > h.Quantile(0.5) || h.Max() < h.Quantile(0.99) {
		t.Errorf("min %g / max %g inconsistent with quantiles", h.Min(), h.Max())
	}
	sumExact := 0.0
	for i := 0; i < perWriter; i++ {
		sumExact += value(i)
	}
	sumExact *= writers
	if rel := math.Abs(h.Sum()-sumExact) / sumExact; rel > 1e-6 {
		t.Errorf("sum = %g, want %g", h.Sum(), sumExact)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := new(Histogram)
	h.Observe(0)
	h.Observe(-1) // clamped into the underflow bucket
	h.Observe(1e9)
	h.Observe(math.NaN()) // dropped
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if h.Min() != -1 {
		t.Errorf("min = %v, want -1", h.Min())
	}
	if h.Max() != 1e9 {
		t.Errorf("max = %v, want 1e9", h.Max())
	}
	if q := h.Quantile(0.0); q > histLo {
		t.Errorf("q0 = %g, want underflow bucket", q)
	}
}

// TestObserveNEqualsRepeatedObserve: ObserveN(v, n) is n calls to
// Observe(v) — count, every bucket (so every quantile), min and max
// exactly, the sum within n ulps — whatever came before; n ≤ 0 and a NaN
// record nothing; and it mixes with Observe on one histogram race-free.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	repeated, batched := new(Histogram), new(Histogram)
	total := int64(0)
	for _, o := range []struct {
		v float64
		n int64
	}{{3e-6, 1}, {3e-6, 24}, {0, 3}, {-2, 2}, {1e9, 5}, {7.5e-4, 1000}, {1e-12, 7}, {2.5e-3, 48}} {
		for i := int64(0); i < o.n; i++ {
			repeated.Observe(o.v)
		}
		batched.ObserveN(o.v, o.n)
		total += o.n
		ulp := math.Nextafter(math.Abs(repeated.Sum()), math.Inf(1)) - math.Abs(repeated.Sum())
		if d := math.Abs(batched.Sum() - repeated.Sum()); d > float64(total)*ulp {
			t.Errorf("after ObserveN(%g, %d): sum %v, %d Observe calls give %v", o.v, o.n, batched.Sum(), o.n, repeated.Sum())
		}
		if batched.Count() != repeated.Count() || batched.Min() != repeated.Min() || batched.Max() != repeated.Max() {
			t.Errorf("after ObserveN(%g, %d): count/min/max %d/%v/%v, repeated %d/%v/%v", o.v, o.n,
				batched.Count(), batched.Min(), batched.Max(), repeated.Count(), repeated.Min(), repeated.Max())
		}
		for i := range batched.buckets {
			if a, b := batched.buckets[i].Load(), repeated.buckets[i].Load(); a != b {
				t.Fatalf("after ObserveN(%g, %d): bucket %d holds %d, repeated %d", o.v, o.n, i, a, b)
			}
		}
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if a, b := batched.Quantile(q), repeated.Quantile(q); a != b {
			t.Errorf("q%.2f = %g, repeated %g", q, a, b)
		}
	}

	before := batched.Stats()
	batched.ObserveN(5, 0)
	batched.ObserveN(5, -3)
	batched.ObserveN(math.NaN(), 4)
	if after := batched.Stats(); after.Count != before.Count || after.Sum != before.Sum || after.Max != before.Max {
		t.Errorf("n ≤ 0 or a NaN recorded something: %+v, was %+v", after, before)
	}

	h := new(Histogram)
	const writers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					h.Observe(1e-6)
				} else {
					h.ObserveN(1e-3, 3)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(writers/2*rounds*(1+3)); got != want || h.Min() != 1e-6 || h.Max() != 1e-3 {
		t.Errorf("concurrent Observe/ObserveN: count %d (want %d), min %v, max %v", got, want, h.Min(), h.Max())
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	now := 0.0
	r.SetClock(func() float64 { now += 1; return now })
	root := r.StartTrace("sweep")
	child := root.StartChild("task")
	grand := child.StartChild("compute")
	grand.End()
	child.End()
	root.End()
	tr, ok := r.Trace(root.Context().TraceID)
	recs := tr.Spans
	if !ok || len(recs) != 3 {
		t.Fatalf("%d finished spans, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["task"].ParentID != byName["sweep"].ID {
		t.Errorf("task parent = %d, want sweep ID %d", byName["task"].ParentID, byName["sweep"].ID)
	}
	if byName["compute"].ParentID != byName["task"].ID {
		t.Errorf("compute parent = %d, want task ID %d", byName["compute"].ParentID, byName["task"].ID)
	}
	if byName["sweep"].ParentID != 0 {
		t.Errorf("sweep parent = %d, want 0 (root)", byName["sweep"].ParentID)
	}
	for _, rec := range recs {
		if rec.End <= rec.Start {
			t.Errorf("span %s has End %v <= Start %v", rec.Name, rec.End, rec.Start)
		}
	}
	if n := r.SpanCount("task"); n != 1 {
		t.Errorf("task span count = %d, want 1", n)
	}
	// Durations land in the span histogram too.
	if c := r.Histogram("span.compute").Count(); c != 1 {
		t.Errorf("span.compute histogram count = %d, want 1", c)
	}
	// Double End is a no-op.
	root.End()
	if n := r.SpanCount("sweep"); n != 1 {
		t.Errorf("sweep counted %d after double End", n)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b, sink := New(), New(), New()
	a.Counter("tasks").Add(2)
	a.Observe("lat", 0.5)
	a.Gauge("util").Set(0.9)
	a.StartSpan("run").End()
	b.Counter("tasks").Add(3)
	b.Observe("lat", 1.5)
	sink.Merge(a, "s1.")
	sink.Merge(b, "s1.")
	if got := sink.Counter("s1.tasks").Value(); got != 5 {
		t.Errorf("merged counter = %d, want 5", got)
	}
	h := sink.Histogram("s1.lat")
	if h.Count() != 2 || h.Min() != 0.5 || h.Max() != 1.5 {
		t.Errorf("merged hist count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if got := sink.Gauge("s1.util").Value(); got != 0.9 {
		t.Errorf("merged gauge = %v", got)
	}
	if got := sink.SpanCount("s1.run"); got != 1 {
		t.Errorf("merged span count = %d", got)
	}
	// The span count is the span histogram's, and a merge invents no
	// series: every histogram in the sink holds what was merged into it.
	snap := sink.Snapshot()
	if got := snap.Histograms["span.s1.run"].Count; got != 1 {
		t.Errorf("merged span histogram count = %d, want 1", got)
	}
	if got := snap.Spans["s1.run"].Count; got != 1 {
		t.Errorf("merged snapshot span count = %d, want 1", got)
	}
	for name, st := range snap.Histograms {
		if st.Count == 0 {
			t.Errorf("merge left an empty histogram %q", name)
		}
	}
}

func TestVirtualClock(t *testing.T) {
	r := New()
	vt := 10.0
	r.SetClock(func() float64 { return vt })
	sp := r.StartTrace("virt")
	vt = 12.5
	sp.End()
	tr, _ := r.Trace(sp.Context().TraceID)
	if recs := tr.Spans; len(recs) != 1 || recs[0].End-recs[0].Start != 2.5 {
		t.Errorf("virtual span = %+v, want 2.5s duration", recs)
	}
	if sum := r.Histogram("span.virt").Sum(); sum != 2.5 {
		t.Errorf("virtual span histogram sum = %v, want 2.5", sum)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := New()
	r.Counter("requests").Add(42)
	r.Observe("latency", 0.25)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests"] != 42 {
		t.Errorf("decoded counters = %v", snap.Counters)
	}
	if snap.Histograms["latency"].Count != 1 {
		t.Errorf("decoded histograms = %v", snap.Histograms)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := new(Histogram)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	h.Observe(0.125)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if rel := math.Abs(got-0.125) / 0.125; rel > 0.10 {
			t.Errorf("q%v = %g, want ≈0.125", q, got)
		}
	}
}
