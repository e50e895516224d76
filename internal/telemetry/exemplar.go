package telemetry

import (
	"fmt"
	"sync"
)

// Exemplars attach a concrete trace to an aggregate: each histogram
// bucket remembers the most recent traced observation that landed in
// it, so a p99 read is one hop from the span tree that produced it.
// Storage is lazy (one pointer per histogram until the first traced
// observation) and last-write-wins, which makes exemplars deterministic
// under the virtual clock: replaying the same observation sequence
// yields the same exemplar table.

// Exemplar is one sampled (trace, value) pair retained by a histogram
// bucket.
type Exemplar struct {
	// Value is the exact observed value (not the bucket midpoint).
	Value float64
	// TraceID is the trace the observation belonged to.
	TraceID uint64
	// When is the registry-clock time of the observation.
	When float64
}

// exemplarTable holds per-bucket exemplars, guarded by a mutex:
// exemplar writes happen only on traced observations (a small fraction
// of the total) so the lock is off the untraced hot path entirely.
type exemplarTable struct {
	mu  sync.Mutex
	ex  [histBuckets]Exemplar
	set [histBuckets]bool
}

// ObserveExemplar records v like Observe and additionally files
// (traceID, v, when) as the exemplar of v's bucket. traceID 0 degrades
// to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64, when float64) {
	h.Observe(v)
	if h == nil || traceID == 0 || v != v { // v != v catches NaN, like Observe
		return
	}
	t := h.exemplars()
	i := bucketIndex(v)
	t.mu.Lock()
	t.ex[i] = Exemplar{Value: v, TraceID: traceID, When: when}
	t.set[i] = true
	t.mu.Unlock()
}

// exemplars returns the histogram's exemplar table, creating it on
// first use.
func (h *Histogram) exemplars() *exemplarTable {
	if t := h.ex.Load(); t != nil {
		return t
	}
	t := new(exemplarTable)
	if h.ex.CompareAndSwap(nil, t) {
		return t
	}
	return h.ex.Load()
}

// ExemplarNear returns the exemplar closest (by bucket distance) to
// value v, preferring the higher bucket on ties — the caller asking
// "show me a trace near the p99" would rather see the slower one.
func (h *Histogram) ExemplarNear(v float64) (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	t := h.ex.Load()
	if t == nil {
		return Exemplar{}, false
	}
	want := bucketIndex(v)
	t.mu.Lock()
	defer t.mu.Unlock()
	for d := 0; d < histBuckets; d++ {
		if i := want + d; i < histBuckets && t.set[i] {
			return t.ex[i], true
		}
		if i := want - d; d > 0 && i >= 0 && t.set[i] {
			return t.ex[i], true
		}
	}
	return Exemplar{}, false
}

// WorstExemplarAbove returns the exemplar of the highest populated
// bucket strictly above v's bucket — the worst recent offender past a
// threshold. Used to attach a trace to SLO breach events.
func (h *Histogram) WorstExemplarAbove(v float64) (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	t := h.ex.Load()
	if t == nil {
		return Exemplar{}, false
	}
	floor := bucketIndex(v)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := histBuckets - 1; i > floor; i-- {
		if t.set[i] {
			return t.ex[i], true
		}
	}
	return Exemplar{}, false
}

// CountAtOrBelow returns how many observations fell into buckets at or
// below v's bucket — the "good" count for a latency objective with
// threshold v. Bucket quantization makes it exact at bucket boundaries
// and at most one bucket (≈9%) generous in between.
func (h *Histogram) CountAtOrBelow(v float64) int64 {
	if h == nil {
		return 0
	}
	hi := bucketIndex(v)
	n := int64(0)
	for i := 0; i <= hi; i++ {
		n += h.buckets[i].Load()
	}
	return n
}

// mergeExemplars copies other's set exemplars into h (last merge wins),
// so Registry.Merge keeps trace links.
func (h *Histogram) mergeExemplars(other *Histogram) {
	ot := other.ex.Load()
	if ot == nil {
		return
	}
	t := h.exemplars()
	ot.mu.Lock()
	exSnap, setSnap := ot.ex, ot.set
	ot.mu.Unlock()
	t.mu.Lock()
	for i := range setSnap {
		if setSnap[i] {
			t.ex[i] = exSnap[i]
			t.set[i] = true
		}
	}
	t.mu.Unlock()
}

// QuantileExemplar is a quantile's exemplar in a Stats snapshot: the
// trace nearest the quantile estimate, rendered as an OpenMetrics
// exemplar by the Prometheus exporter.
type QuantileExemplar struct {
	Quantile float64 `json:"quantile"`
	Value    float64 `json:"value"`
	Trace    string  `json:"trace"`
	When     float64 `json:"when"`
}

// quantileExemplars pairs each quantile estimate with the nearest
// retained exemplar, for Stats.
func (h *Histogram) quantileExemplars(st Stats) []QuantileExemplar {
	if h == nil || h.ex.Load() == nil || st.Count == 0 {
		return nil
	}
	var out []QuantileExemplar
	for _, p := range [...]struct {
		q float64
		v float64
	}{{0.50, st.P50}, {0.95, st.P95}, {0.99, st.P99}} {
		if ex, ok := h.ExemplarNear(p.v); ok {
			out = append(out, QuantileExemplar{
				Quantile: p.q,
				Value:    ex.Value,
				Trace:    fmt.Sprintf("%016x", ex.TraceID),
				When:     ex.When,
			})
		}
	}
	return out
}
