package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a namespace of metrics and a span factory. Create one
// with New; the zero value is not usable, but a nil *Registry is a
// valid no-op sink (every method on it is safe and does nothing).
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *Histogram
	spanAggs sync.Map // string -> *spanAgg

	clock  atomic.Value // func() float64
	spanID atomic.Uint64

	// ring of recently finished spans, for debugging and tests.
	spanMu   sync.Mutex
	spanRing []SpanRecord
	spanNext int

	// traces retains the spans of recently seen traces for /debug/traces
	// reassembly (local spans via recordSpan, remote ones via IngestSpans).
	traces traceTable
	// spansDropped counts the spans full traces turned away. It exists
	// from New, at zero, so an overflow shows as a rate on a series that
	// was always there rather than as a series appearing.
	spansDropped *Counter

	// events is the flight-recorder ring (event.go), allocated on first
	// emission so registries that never emit events pay nothing.
	events atomic.Pointer[eventLog]
}

// spanRingCap bounds the finished-span ring buffer.
const spanRingCap = 4096

type spanAgg struct {
	count Counter
	total Gauge      // summed duration in seconds
	hist  *Histogram // the "span.<name>" histogram, resolved once
}

// New returns an empty registry on the wall clock. Span IDs start at a
// random base so spans minted by different registries — in particular
// different processes of one distributed farm — stay distinct when their
// records meet in one trace tree.
func New() *Registry {
	r := &Registry{}
	r.clock.Store(func() float64 { return wallSeconds() })
	r.spanID.Store(randUint64())
	r.spansDropped = r.Counter("telemetry.trace.spans_dropped")
	return r
}

// Default is a shared process-wide registry for callers that do not
// need isolation (the CLI tools use it).
var Default = New()

// SetClock replaces the registry clock with fn, a monotone
// seconds-valued function. The cluster simulator installs its virtual
// clock here so recorded durations are virtual seconds.
func (r *Registry) SetClock(fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.clock.Store(fn)
}

// Now reads the registry clock (0 for nil registries).
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	return r.clock.Load().(func() float64)()
}

// Counter returns the named counter, creating it on first use. Nil
// registries return nil, which is itself a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, new(Histogram))
	return v.(*Histogram)
}

// Observe records v into the named histogram.
func (r *Registry) Observe(name string, v float64) {
	r.Histogram(name).Observe(v)
}

// Add increments the named counter.
func (r *Registry) Add(name string, n int64) {
	r.Counter(name).Add(n)
}

func (r *Registry) spanAgg(name string) *spanAgg {
	if v, ok := r.spanAggs.Load(name); ok {
		return v.(*spanAgg)
	}
	v, _ := r.spanAggs.LoadOrStore(name, &spanAgg{hist: r.Histogram("span." + name)})
	return v.(*spanAgg)
}

// recordSpan files a finished span into the aggregate, the duration
// histogram "span.<name>", and the ring.
func (r *Registry) recordSpan(rec SpanRecord) {
	agg := r.spanAgg(rec.Name)
	agg.count.Add(1)
	agg.total.Add(rec.End - rec.Start)
	if rec.TraceID != 0 {
		agg.hist.ObserveExemplar(rec.End-rec.Start, rec.TraceID, rec.End)
	} else {
		agg.hist.Observe(rec.End - rec.Start)
	}
	r.fileSpan(rec, false)
	r.spanMu.Lock()
	if len(r.spanRing) < spanRingCap {
		r.spanRing = append(r.spanRing, rec)
	} else {
		r.spanRing[r.spanNext] = rec
		r.spanNext = (r.spanNext + 1) % spanRingCap
	}
	r.spanMu.Unlock()
}

// FinishedSpans returns a copy of the retained finished spans (the most
// recent spanRingCap of them), in no particular order.
func (r *Registry) FinishedSpans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, len(r.spanRing))
	copy(out, r.spanRing)
	return out
}

// SpanCount returns how many spans with the given name have finished.
func (r *Registry) SpanCount(name string) int64 {
	if r == nil {
		return 0
	}
	v, ok := r.spanAggs.Load(name)
	if !ok {
		return 0
	}
	return v.(*spanAgg).count.Value()
}

// SpanStats summarizes one span name in a snapshot.
type SpanStats struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Snapshot is a frozen, JSON-serializable copy of every metric in a
// registry.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]Stats     `json:"histograms,omitempty"`
	Spans      map[string]SpanStats `json:"spans,omitempty"`
}

// Snapshot freezes the registry. It is safe to call concurrently with
// writers; values are per-metric consistent, not globally consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]Stats{},
		Spans:      map[string]SpanStats{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).Stats()
		return true
	})
	r.spanAggs.Range(func(k, v any) bool {
		agg := v.(*spanAgg)
		s.Spans[k.(string)] = SpanStats{Count: agg.count.Value(), TotalSeconds: agg.total.Value()}
		return true
	})
	return s
}

// Names returns the sorted names of one metric kind, mainly for
// deterministic reports.
func (s Snapshot) Names(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge folds every metric of from into r, prefixing names with prefix:
// counters and span aggregates add, gauges overwrite, histograms merge
// bucket-wise. The sweep harness uses it to accumulate per-run
// registries into a caller-provided sink.
func (r *Registry) Merge(from *Registry, prefix string) {
	if r == nil || from == nil {
		return
	}
	from.counters.Range(func(k, v any) bool {
		r.Counter(prefix + k.(string)).Add(v.(*Counter).Value())
		return true
	})
	from.gauges.Range(func(k, v any) bool {
		r.Gauge(prefix + k.(string)).Set(v.(*Gauge).Value())
		return true
	})
	from.hists.Range(func(k, v any) bool {
		r.Histogram(prefix + k.(string)).merge(v.(*Histogram))
		return true
	})
	from.spanAggs.Range(func(k, v any) bool {
		agg := v.(*spanAgg)
		dst := r.spanAgg(prefix + k.(string))
		dst.count.Add(agg.count.Value())
		dst.total.Add(agg.total.Value())
		return true
	})
}
