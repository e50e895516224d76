package telemetry

import (
	"strings"
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
	// spanHists resolves a span name to its "span.<name>" histogram once,
	// so finishing a span builds no string.
	spanHists sync.Map // string -> *Histogram

	clock  atomic.Value // func() float64
	spanID atomic.Uint64

	// traces retains the spans of recently seen traces for /debug/traces
	// reassembly (local spans via recordSpan, remote ones via Ingest).
	traces traceTable
	// spansDropped counts the spans full traces turned away. It exists
	// from New, at zero, so an overflow shows as a rate on a series that
	// was always there rather than as a series appearing.
	spansDropped *Counter

	// events is the flight-recorder ring (event.go), allocated on first
	// emission so registries that never emit events pay nothing.
	events atomic.Pointer[eventLog]
}

// spanPrefix names the histograms finished spans feed: a span called
// "farm.task" is counted and timed by the histogram "span.farm.task".
const spanPrefix = "span."

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

// process is the process sink: the registry of the layers whose hot
// functions take none (premia's Compute, mpi's SendObj/RecvObj).
var process atomic.Pointer[Registry]

// SetProcess installs r as the process sink; nil, the initial state,
// switches it off.
func SetProcess(r *Registry) { process.Store(r) }

// Process returns the process sink (nil, a no-op sink, when unset).
func Process() *Registry { return process.Load() }

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

// recordSpan files a finished span in its two homes: the duration
// histogram "span.<name>", which is also the span's count and total, and
// — when the span is traced — its trace.
func (r *Registry) recordSpan(rec SpanRecord) {
	h, ok := r.spanHists.Load(rec.Name)
	if !ok {
		h, _ = r.spanHists.LoadOrStore(rec.Name, r.Histogram(spanPrefix+rec.Name))
	}
	h.(*Histogram).ObserveExemplar(rec.End-rec.Start, rec.TraceID, rec.End)
	r.fileSpan(rec, false)
}

// Ingest files what a worker shipped back with its results, already
// shifted onto this registry's clock and attributed to the worker's rank
// by the caller. Spans enter traces only: they were counted into the
// worker's own histograms, so observing them here would double-count
// when master and worker share a registry. Events join the flight
// recorder.
func (r *Registry) Ingest(spans []SpanRecord, events []Event) {
	if r == nil {
		return
	}
	for _, rec := range spans {
		r.fileSpan(rec, true)
	}
	if len(events) > 0 {
		l := r.eventLog()
		for _, ev := range events {
			l.emit(ev)
		}
	}
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
		st := v.(*Histogram).Stats()
		s.Histograms[k.(string)] = st
		// A span name appears once a span of it has finished; a span
		// histogram something merely looked up (an SLO) is not a span yet.
		if name, ok := strings.CutPrefix(k.(string), spanPrefix); ok && st.Count > 0 {
			s.Spans[name] = SpanStats{Count: st.Count, TotalSeconds: st.Sum}
		}
		return true
	})
	return s
}

// Merge folds every metric of from into r, prefixing names with prefix:
// counters add, gauges overwrite, histograms merge bucket-wise. The
// prefix goes on the span name, not in front of the span histogram's
// own prefix: "span.farm.task" merges into "span.<prefix>farm.task", so
// the merged spans are still spans. The sweep harness uses it to
// accumulate per-run registries into a caller-provided sink.
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
		name := prefix + k.(string)
		if span, ok := strings.CutPrefix(k.(string), spanPrefix); ok {
			name = spanPrefix + prefix + span
		}
		r.Histogram(name).merge(v.(*Histogram))
		return true
	})
}
