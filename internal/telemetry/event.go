package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The event log is the registry's flight recorder: a bounded ring of
// discrete occurrences (worker died, task failed, limit breached,
// deadline missed) that complements the aggregate metrics and the span
// trees. Metrics say *how much*, traces say *where the time went*,
// events say *what happened* — and carry the trace ID that links the
// three views together.
//
// The ring is fixed-capacity and allocation-free at steady state: an
// atomic cursor assigns each emission its slot, so emitters never
// contend with each other; a per-slot mutex orders the (rare)
// wrap-around overwrite against snapshot readers, which is what keeps
// concurrent emit/read exact under the race detector rather than
// seqlock-approximate. Field values are copied into slot-resident
// arrays and the variadic field slices never escape, so Emit stays at
// 0 allocs/op.

// Level grades an event's severity. The zero value is LevelDebug, so a
// zero EventFilter passes everything.
type Level int8

// The event severity levels. Workers ship LevelWarn and above back to
// their master; LevelDebug and LevelInfo stay local.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel maps a lowercase level name back to its Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown level %q (want debug, info, warn or error)", s)
	}
}

// Field is one typed key/value attribute of an event: either a string
// or a number, never both. Construct with Str or Num.
type Field struct {
	// Key names the attribute ("task", "rank", "err").
	Key   string
	str   string
	num   float64
	isStr bool
}

// Str builds a string-valued field.
func Str(key, value string) Field { return Field{Key: key, str: value, isStr: true} }

// Num builds a number-valued field.
func Num(key string, value float64) Field { return Field{Key: key, num: value} }

// StrValue returns the string value and whether the field is a string.
func (f Field) StrValue() (string, bool) { return f.str, f.isStr }

// NumValue returns the numeric value and whether the field is a number.
func (f Field) NumValue() (float64, bool) { return f.num, !f.isStr }

// Value returns the field's value as string or float64.
func (f Field) Value() any {
	if f.isStr {
		return f.str
	}
	return f.num
}

// RankLocal marks an event emitted by this process rather than ingested
// from a worker.
const RankLocal = -1

// Event is one recorded occurrence.
type Event struct {
	// Seq is the emission index in this registry's log, ascending and
	// dense; eviction drops the low end.
	Seq uint64
	// When is the registry clock at emission (virtual under simnet).
	When float64
	// Level grades the severity.
	Level Level
	// Name identifies the occurrence kind in the same dotted
	// pkg.noun.verb grammar as metric names ("farm.task.fail").
	Name string
	// TraceID links the event to a distributed trace; 0 = untraced.
	TraceID uint64
	// Rank is the worker rank the event was ingested from, or RankLocal
	// for events of this process.
	Rank int
	// Fields carries the attributes. In snapshots the slice is owned by
	// the caller; inside the ring it aliases slot storage.
	Fields []Field
}

// Ring geometry: eventRingCap bounds retained events (a power of two so
// the slot index is a mask); maxEventFields bounds the attributes one
// event can carry — extras are dropped, never allocated.
const (
	eventRingCap   = 2048
	maxEventFields = 8
)

// eventSlot holds one ring position. seq tells readers which emission
// currently occupies the slot (0 = never written).
type eventSlot struct {
	mu  sync.Mutex
	seq uint64
	ev  Event
	buf [maxEventFields]Field
}

// eventLog is the bounded event ring, created lazily on first use so
// registries that never emit events pay nothing.
type eventLog struct {
	cursor atomic.Uint64 // last assigned seq; 0 = nothing emitted
	slots  []eventSlot
}

func newEventLog() *eventLog {
	return &eventLog{slots: make([]eventSlot, eventRingCap)}
}

// emit files one event, claiming the next slot with a single atomic
// add. ev.Seq is assigned here; ev.Fields is copied into slot storage
// (truncated at maxEventFields).
func (l *eventLog) emit(ev Event) uint64 {
	seq := l.cursor.Add(1)
	s := &l.slots[(seq-1)&uint64(len(l.slots)-1)]
	s.mu.Lock()
	s.seq = seq
	n := copy(s.buf[:], ev.Fields)
	ev.Seq = seq
	ev.Fields = s.buf[:n]
	s.ev = ev
	s.mu.Unlock()
	return seq
}

// eventLog returns the registry's ring, creating it on first use.
func (r *Registry) eventLog() *eventLog {
	if l := r.events.Load(); l != nil {
		return l
	}
	l := newEventLog()
	if r.events.CompareAndSwap(nil, l) {
		return l
	}
	return r.events.Load()
}

// Emit files one event into the registry's flight recorder, stamped
// with the registry clock. tc links the event to a distributed trace
// (pass TraceContext{} for untraced events). Fields beyond the
// per-event cap are dropped. Nil registries discard events.
func (r *Registry) Emit(level Level, name string, tc TraceContext, fields ...Field) {
	if r == nil {
		return
	}
	r.eventLog().emit(Event{When: r.Now(), Level: level, Name: name, TraceID: tc.TraceID, Rank: RankLocal, Fields: fields})
}

// EmitCtx is Emit with the trace context extracted from ctx — the form
// for call sites that already thread a request context.
func (r *Registry) EmitCtx(ctx context.Context, level Level, name string, fields ...Field) {
	tc, _ := TraceFromContext(ctx)
	r.Emit(level, name, tc, fields...)
}

// EventCursor returns the sequence number of the most recent emission
// (0 when nothing was emitted). Workers snapshot it before a batch so
// they can ship exactly the batch's events.
func (r *Registry) EventCursor() uint64 {
	if r == nil {
		return 0
	}
	l := r.events.Load()
	if l == nil {
		return 0
	}
	return l.cursor.Load()
}

// EventFilter selects events out of the log. The zero value passes
// everything retained.
type EventFilter struct {
	// MinLevel drops events below this severity.
	MinLevel Level
	// Prefix, when non-empty, keeps only events whose name starts with
	// it ("farm." selects the farm subsystem).
	Prefix string
	// TraceID, when non-zero, keeps only events of that trace.
	TraceID uint64
	// SinceSeq drops events with Seq <= SinceSeq.
	SinceSeq uint64
	// Max bounds the result length, keeping the newest; 0 = unbounded.
	Max int
}

func (f EventFilter) pass(ev Event) bool {
	if ev.Level < f.MinLevel {
		return false
	}
	if f.TraceID != 0 && ev.TraceID != f.TraceID {
		return false
	}
	if f.Prefix != "" && !strings.HasPrefix(ev.Name, f.Prefix) {
		return false
	}
	return true
}

// Events snapshots the retained events matching f, oldest first. Field
// slices are copied, so the result stays valid while emitters keep
// writing. Events overwritten mid-snapshot are skipped, never torn.
func (r *Registry) Events(f EventFilter) []Event {
	if r == nil {
		return nil
	}
	l := r.events.Load()
	if l == nil {
		return nil
	}
	hi := l.cursor.Load()
	lo := uint64(1)
	if hi > uint64(len(l.slots)) {
		lo = hi - uint64(len(l.slots)) + 1
	}
	if f.SinceSeq+1 > lo {
		lo = f.SinceSeq + 1
	}
	var out []Event
	for seq := lo; seq <= hi; seq++ {
		s := &l.slots[(seq-1)&uint64(len(l.slots)-1)]
		s.mu.Lock()
		if s.seq != seq {
			s.mu.Unlock()
			continue // evicted (or not yet written) under our feet
		}
		ev := s.ev
		ev.Fields = append([]Field(nil), ev.Fields...)
		s.mu.Unlock()
		if f.pass(ev) {
			out = append(out, ev)
		}
	}
	if f.Max > 0 && len(out) > f.Max {
		out = out[len(out)-f.Max:]
	}
	return out
}

// eventJSON is the NDJSON wire form of one event.
type eventJSON struct {
	Seq    uint64         `json:"seq"`
	When   float64        `json:"when"`
	Level  string         `json:"level"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace,omitempty"`
	Rank   *int           `json:"rank,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

func toEventJSON(ev Event) eventJSON {
	j := eventJSON{Seq: ev.Seq, When: ev.When, Level: ev.Level.String(), Name: ev.Name}
	if ev.TraceID != 0 {
		j.Trace = fmt.Sprintf("%016x", ev.TraceID)
	}
	if ev.Rank != RankLocal {
		rank := ev.Rank
		j.Rank = &rank
	}
	if len(ev.Fields) > 0 {
		j.Fields = make(map[string]any, len(ev.Fields))
		for _, f := range ev.Fields {
			j.Fields[f.Key] = f.Value()
		}
	}
	return j
}

// DefaultEventCount bounds how many events /debug/events returns when
// the request does not say.
const DefaultEventCount = 256

// EventsHandler serves the registry's event log as NDJSON, one event
// per line, oldest first — the /debug/events endpoint. Query
// parameters filter the log:
//
//	level=warn        minimum severity (debug|info|warn|error)
//	prefix=farm.      name prefix
//	trace=4a1f...     16-hex-digit trace ID (cross-links /debug/traces)
//	n=100             maximum events returned (default 256)
func EventsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f := EventFilter{Max: DefaultEventCount}
		q := req.URL.Query()
		if s := q.Get("level"); s != "" {
			lv, err := ParseLevel(s)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			f.MinLevel = lv
		}
		f.Prefix = q.Get("prefix")
		if s := q.Get("trace"); s != "" {
			id, err := strconv.ParseUint(s, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, fmt.Sprintf("bad trace ID %q: want 16 hex digits", s), http.StatusBadRequest)
				return
			}
			f.TraceID = id
		}
		if s := q.Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad count %q", s), http.StatusBadRequest)
				return
			}
			f.Max = n
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		enc := json.NewEncoder(w)
		for _, ev := range r.Events(f) {
			if err := enc.Encode(toEventJSON(ev)); err != nil {
				return
			}
		}
	})
}
