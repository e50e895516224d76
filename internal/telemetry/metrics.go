package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric supporting both Set and atomic Add; it
// doubles as a float accumulator (busy seconds, work units). A nil
// *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket geometry: geometric buckets from histLo upward with
// growth factor 2^(1/8) per bucket (≈9% relative width, so quantile
// estimates carry at most ≈4.5% relative error when read at the bucket
// midpoint). Bucket 0 collects everything ≤ histLo; the last bucket
// collects the overflow. The span histLo·g^histBuckets reaches past 1e5
// seconds, wide enough for nanosecond pack times and day-long sweeps in
// the same metric.
const (
	histLo      = 1e-9
	histBuckets = 376
)

var (
	histLogGrowth = math.Ln2 / 8 // log of 2^(1/8)
	histGrowth    = math.Exp(histLogGrowth)
)

func bucketIndex(v float64) int {
	if !(v > histLo) { // also catches NaN and non-positives
		return 0
	}
	i := 1 + int(math.Log(v/histLo)/histLogGrowth)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketMid returns the representative value of bucket i (its geometric
// midpoint), used for quantile and mean estimation.
func bucketMid(i int) float64 {
	if i == 0 {
		return histLo
	}
	return histLo * math.Exp((float64(i)-0.5)*histLogGrowth)
}

// Histogram is a lock-free histogram of positive observations (usually
// durations in seconds). All methods are safe for concurrent use; a nil
// *Histogram discards updates.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; valid once count > 0
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64

	// ex holds per-bucket exemplars (exemplar.go), allocated on the
	// first traced observation.
	ex atomic.Pointer[exemplarTable]
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of one value: the count, the quantiles
// and the extremes of n calls to Observe(v), with the sum added as n·v in
// one step (within n ulps of n additions). n ≤ 0 and a NaN record nothing.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + float64(n)*v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.updateExtremes(v, v)
}

// minStoreBits encodes v for the min slot: the all-zero bit pattern is
// the "unseeded" sentinel, so an observed value of exactly +0 is stored
// as -0 (numerically equal, distinct bits).
func minStoreBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 0 {
		return math.Float64bits(math.Copysign(0, -1))
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts.
// It returns 0 when the histogram is empty. Concurrent writers make the
// walk a consistent-enough snapshot, not an exact one.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := int64(0)
	var counts [histBuckets]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// merge folds other's buckets and aggregates into h.
func (h *Histogram) merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	n := other.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + other.Sum())
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.updateExtremes(other.Min(), other.Max())
	h.mergeExemplars(other)
}

func (h *Histogram) updateExtremes(min, max float64) {
	for {
		old := h.minBits.Load()
		if old != 0 && math.Float64frombits(old) <= min {
			break
		}
		if h.minBits.CompareAndSwap(old, minStoreBits(min)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if old != 0 && math.Float64frombits(old) >= max {
			break
		}
		if h.maxBits.CompareAndSwap(old, minStoreBits(max)) {
			break
		}
	}
}

// Stats summarizes the histogram for snapshots and reports.
type Stats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Exemplars links each quantile to the nearest retained traced
	// observation; empty when the histogram never saw a traced value.
	Exemplars []QuantileExemplar `json:"exemplars,omitempty"`
}

// Stats returns the current summary.
func (h *Histogram) Stats() Stats {
	if h == nil {
		return Stats{}
	}
	st := Stats{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	st.Exemplars = h.quantileExemplars(st)
	return st
}
