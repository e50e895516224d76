package telemetry

import (
	"cmp"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext identifies a position in a distributed trace: the trace a
// span belongs to and the span it should parent onto. The zero value
// means "no trace"; spans started without one are metrics-only and never
// enter the trace table. TraceContexts cross process boundaries packed
// into farm task descriptors, which is how a worker's farm.compute span
// ends up parented onto the master's farm.task span.
type TraceContext struct {
	// TraceID groups every span of one request / bench run; 0 = untraced.
	TraceID uint64
	// SpanID is the parent span for children started from this context.
	SpanID uint64
}

// Valid reports whether the context carries a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// randUint64 draws a random non-zero 64-bit value, falling back to the
// wall clock if the system entropy source fails.
func randUint64() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
	//lint:allow wallclock entropy-failure fallback for ID uniqueness, not a time source
	return uint64(time.Now().UnixNano()) | 1
}

// traceIDs steps from a random base in odd strides, so trace IDs are
// unique within a process without paying for an entropy read per
// request, and different processes start from different bases.
var traceIDs atomic.Uint64

func init() { traceIDs.Store(randUint64()) }

// NewTraceID mints a fresh trace ID (never 0).
func NewTraceID() uint64 {
	for {
		if id := traceIDs.Add(0x9e3779b97f4a7c15); id != 0 {
			return id
		}
	}
}

// traceCtxKey keys a TraceContext in a context.Context.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc; invalid contexts are
// not stored, so TraceFromContext stays a reliable "is tracing on" test.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the trace context threaded through ctx.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// Trace-table retention bounds: traces beyond maxTraces evict the oldest
// trace FIFO, and spans beyond maxTraceSpans within one trace are
// dropped, so a hot server's trace memory stays fixed regardless of
// request rate or batch size.
const (
	maxTraces     = 128
	maxTraceSpans = 4096
)

// smallTrace is the span count up to which an arriving span is deduped
// by scanning its trace's slice. A serve request's trace holds about a
// dozen spans and the table churns one entry per request on a hot
// server, so the common trace never allocates a set; a revaluation's
// trace holds thousands and would otherwise pay a scan of all of them
// for every span a worker ships back.
const smallTrace = 32

// traceEntry accumulates the spans of one trace as they finish locally
// or arrive from workers.
type traceEntry struct {
	spans []SpanRecord // arrival order, no two with one span ID
	// ids holds the ID of every span in spans from the first time a span
	// arrives from elsewhere at a trace that has outgrown smallTrace; nil
	// until then.
	ids map[uint64]struct{}
	// dropped counts the spans turned away at the maxTraceSpans cap.
	dropped int
}

// has reports whether the entry already holds a span with this ID.
func (e *traceEntry) has(id uint64) bool {
	if e.ids != nil {
		_, ok := e.ids[id]
		return ok
	}
	for i := range e.spans {
		if e.spans[i].ID == id {
			return true
		}
	}
	return false
}

// traceTable is the registry's bounded store of recently seen traces.
type traceTable struct {
	mu     sync.Mutex
	traces map[uint64]*traceEntry
	order  []uint64 // trace IDs in first-seen order, for FIFO eviction
}

// add files one finished span under its trace. A span filed by its own
// End (arrived false) is new by construction; one that arrived from a
// worker is deduplicated by span ID, because when master and worker
// share a registry the same record comes twice: once from Span.End, then
// shipped back with the results. add reports false when the span was
// dropped because its trace is full; the cap is checked first, so a full
// trace costs a drop nothing more.
func (t *traceTable) add(rec SpanRecord, arrived bool) bool {
	if rec.TraceID == 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traces == nil {
		t.traces = make(map[uint64]*traceEntry)
	}
	e := t.traces[rec.TraceID]
	if e == nil {
		if len(t.order) >= maxTraces {
			oldest := t.order[0]
			t.order = t.order[1:]
			if old := t.traces[oldest]; old != nil {
				e = old // recycle: at steady state eviction funds admission
				e.spans, e.ids, e.dropped = e.spans[:0], nil, 0
			}
			delete(t.traces, oldest)
		}
		if e == nil {
			e = &traceEntry{spans: make([]SpanRecord, 0, 4)}
		}
		t.traces[rec.TraceID] = e
		t.order = append(t.order, rec.TraceID)
	}
	if len(e.spans) >= maxTraceSpans {
		e.dropped++
		return false
	}
	if arrived {
		if e.ids == nil && len(e.spans) > smallTrace {
			e.ids = make(map[uint64]struct{}, 2*len(e.spans))
			for i := range e.spans {
				e.ids[e.spans[i].ID] = struct{}{}
			}
		}
		if e.has(rec.ID) {
			return true
		}
	}
	if e.ids != nil {
		e.ids[rec.ID] = struct{}{}
	}
	if n := len(e.spans); n == cap(e.spans) && n >= smallTrace {
		// A trace this size is usually on its way to thousands of spans:
		// quadruple rather than creep up by append's quarter steps, which
		// copy the records five times over on the way to the cap.
		e.spans = slices.Grow(e.spans, min(3*n, maxTraceSpans-n))
	}
	e.spans = append(e.spans, rec)
	return true
}

// fileSpan files rec in the trace table and counts it when its trace was
// full, so an overflowed trace is visible on /metrics as well as on
// /debug/traces.
func (r *Registry) fileSpan(rec SpanRecord, arrived bool) {
	if !r.traces.add(rec, arrived) {
		r.spansDropped.Add(1)
	}
}

// Trace is one reassembled span tree, as retained by the registry.
type Trace struct {
	// TraceID is the tree's trace identifier.
	TraceID uint64
	// Spans holds every retained span of the trace, ordered by start
	// time (ties broken by span ID for determinism).
	Spans []SpanRecord
	// Dropped is how many further spans the trace was offered after it
	// reached the table's per-trace cap. They still counted into the span
	// aggregates and histograms; only the tree is missing them.
	Dropped int
}

// Duration is the trace's end-to-end extent: latest End minus earliest
// Start over all retained spans.
func (tr Trace) Duration() float64 {
	if len(tr.Spans) == 0 {
		return 0
	}
	lo, hi := tr.Spans[0].Start, tr.Spans[0].End
	for _, s := range tr.Spans[1:] {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return hi - lo
}

// Roots returns the spans whose parent is absent from the trace (the
// request root, plus any orphaned subtrees whose parents were evicted).
func (tr Trace) Roots() []SpanRecord {
	present := make(map[uint64]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		present[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range tr.Spans {
		if s.ParentID == 0 || !present[s.ParentID] {
			roots = append(roots, s)
		}
	}
	return roots
}

// Find returns the first retained span with the given name.
func (tr Trace) Find(name string) (SpanRecord, bool) {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanRecord{}, false
}

// snapshot copies the traces pick names out of the table, in pick's
// order, and start-orders their spans (ties by span ID). pick runs under
// the table lock every Span.End takes and only the traces it names are
// copied there, so reading one tree off a full table costs one tree.
func (r *Registry) snapshot(pick func(t *traceTable) []uint64) []Trace {
	if r == nil {
		return nil
	}
	t := &r.traces
	t.mu.Lock()
	ids := pick(t)
	out := make([]Trace, 0, len(ids))
	for _, id := range ids {
		if e := t.traces[id]; e != nil {
			out = append(out, Trace{TraceID: id, Spans: slices.Clone(e.spans), Dropped: e.dropped})
		}
	}
	t.mu.Unlock()
	for _, tr := range out {
		slices.SortFunc(tr.Spans, func(a, b SpanRecord) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
		})
	}
	return out
}

// Trace returns one retained trace, reassembled.
func (r *Registry) Trace(id uint64) (Trace, bool) {
	out := r.snapshot(func(*traceTable) []uint64 { return []uint64{id} })
	if len(out) == 0 {
		return Trace{}, false
	}
	return out[0], true
}

// Traces returns every retained trace, reassembled, ordered by trace
// ID so repeated snapshots of the same table render identically.
func (r *Registry) Traces() []Trace {
	return r.snapshot(func(t *traceTable) []uint64 {
		ids := slices.Clone(t.order)
		slices.Sort(ids)
		return ids
	})
}

// SlowestTraces returns up to n retained traces (all of them when n is
// 0) ordered by descending duration — what /debug/traces renders. The
// ranking reads the table in place.
func (r *Registry) SlowestTraces(n int) []Trace {
	return r.snapshot(func(t *traceTable) []uint64 {
		ids := slices.Clone(t.order)
		duration := make(map[uint64]float64, len(ids))
		for _, id := range ids {
			duration[id] = Trace{Spans: t.traces[id].spans}.Duration()
		}
		slices.SortFunc(ids, func(a, b uint64) int {
			return cmp.Or(cmp.Compare(duration[b], duration[a]), cmp.Compare(a, b))
		})
		if n > 0 && len(ids) > n {
			ids = ids[:n]
		}
		return ids
	})
}
