package telemetry

import "context"

// Span is one timed region of work. Spans form trees via StartChild;
// finishing a span records its duration under "span.<name>" and files a
// SpanRecord carrying the parent link. A nil *Span is a valid no-op, so
// instrumented code can start spans unconditionally.
//
// Spans started under a trace (Start, StartTrace, StartSpanIn, or
// children of such spans) additionally enter the registry's trace table,
// keyed by their TraceID, from which whole request trees are reassembled
// even when parts of the tree finished in another process.
type Span struct {
	reg   *Registry
	rec   SpanRecord // End is set by End
	ended bool
}

// SpanRecord is a finished span: what its trace retains and what a
// worker ships to its master.
type SpanRecord struct {
	// ID is unique within the registry; ParentID is 0 for roots. New
	// registries start their ID sequence at a random base, so records
	// from different registries (= different processes) do not collide
	// when reassembled into one trace.
	ID, ParentID uint64
	// TraceID groups the spans of one distributed trace; 0 = untraced.
	TraceID uint64
	// Name is the span name given to StartSpan/StartChild.
	Name string
	// Start and End are registry-clock readings in seconds.
	Start, End float64
}

// start opens a span; a nil registry yields the no-op nil span.
func (r *Registry) start(parentID, traceID uint64, name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, rec: SpanRecord{ID: r.spanID.Add(1), ParentID: parentID, TraceID: traceID, Name: name, Start: r.Now()}}
}

// StartSpan opens a root span outside any trace.
func (r *Registry) StartSpan(name string) *Span { return r.start(0, 0, name) }

// StartTrace opens a root span under a freshly minted trace ID. Layers
// open theirs with Start; serve's priceLeaders roots a lone /price here.
func (r *Registry) StartTrace(name string) *Span { return r.start(0, NewTraceID(), name) }

// StartSpanIn opens a span parented on tc — typically a context that
// arrived from another process (a farm task descriptor) or another
// goroutine (a context.Context). An invalid tc degrades to StartSpan.
func (r *Registry) StartSpanIn(tc TraceContext, name string) *Span {
	return r.start(tc.SpanID, tc.TraceID, name)
}

// Start opens a layer's span: a child of the trace ctx carries, else a
// new trace's root when root is set, else untraced. The returned context
// carries the span when traced; a nil registry returns ctx and a nil span.
func (r *Registry) Start(ctx context.Context, name string, root bool) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	var s *Span
	if tc, ok := TraceFromContext(ctx); ok {
		s = r.StartSpanIn(tc, name)
	} else if root {
		s = r.StartTrace(name)
	} else {
		return ctx, r.StartSpan(name)
	}
	return context.WithValue(ctx, traceCtxKey{}, s.Context()), s
}

// StartChild opens a child span under s, inheriting its trace.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.reg.start(s.rec.ID, s.rec.TraceID, name)
}

// ID returns the span's registry-unique ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// Context returns the span's position in its trace, for handing to
// children in other goroutines or processes. Zero (invalid) when the
// span is nil or untraced.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.ID}
}

// End finishes the span and records it; extra calls are ignored. Spans
// are not goroutine-safe: one goroutine owns a span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.End = s.reg.Now()
	s.reg.recordSpan(s.rec)
}

// Record returns the finished span's SpanRecord — what workers ship back
// to the master so its trace table sees the whole tree. Valid only after
// End; a nil or unfinished span yields the zero record.
func (s *Span) Record() SpanRecord {
	if s == nil || !s.ended {
		return SpanRecord{}
	}
	return s.rec
}
