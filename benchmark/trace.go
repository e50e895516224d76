package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public entry point. Times are seconds since the recorder
// was made; Parent indexes the span that caused this one (-1 for an
// operation's root); spans of one operation share Op.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

func (s span) duration() float64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until the run ends.
// A nil recorder records nothing, which is how the untraced replays
// that trace.overhead_share compares against run the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
	t0    time.Time
	// op and handler are the operation being replayed and its
	// serve.handler span. Replays send one operation at a time, so the
	// seams that get no context from their caller (the batcher prices on
	// its own context) can still name what caused them.
	op      atomic.Int64
	handler atomic.Int64
	// paused makes the seams record nothing for a while: a replay
	// alternates recorded and unrecorded operations on one server, so the
	// two kinds meet the same machine.
	paused atomic.Bool
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.handler.Store(-1)
	return r
}

// start opens a span and returns its index.
func (r *recorder) start(name string, parent int) int {
	if r == nil || r.paused.Load() {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: int(r.op.Load())})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// finish closes a span opened by start.
func (r *recorder) finish(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot copies every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans stores spans as a JSON array at path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

// withSpan threads a span index through a context, so the seam below
// can name its parent.
func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its children cover, and how much of that interval
// the children cover more than once. Children may overlap one another
// (parallel workers) and may stick out of the parent (a clock read on
// another goroutine); the covered part is the union of the children
// clipped to the parent. A tree's self times, less its overlaps, sum to
// the wall time of its root.
func selfTimes(spans []span) (self, overlap []float64) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self, overlap = make([]float64, len(spans)), make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, summed, edge := 0.0, 0.0, s.Start
		for _, k := range kids {
			lo, hi := math.Max(spans[k].Start, s.Start), math.Min(spans[k].End, s.End)
			if hi > lo {
				summed += hi - lo
			}
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.duration() - covered
		overlap[i] = summed - covered
	}
	return self, overlap
}
