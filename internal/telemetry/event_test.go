package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestEventEmitAndFilter drives the flight recorder under a virtual
// clock and checks stamping, ordering and every filter axis.
func TestEventEmitAndFilter(t *testing.T) {
	r := New()
	clk := 0.0
	r.SetClock(func() float64 { return clk })
	clk = 1
	r.Emit(LevelDebug, "farm.fetch.begin", TraceContext{})
	clk = 2
	r.Emit(LevelWarn, "farm.task.retry", TraceContext{TraceID: 0xabc, SpanID: 1},
		Str("task", "p0001"), Num("rank", 3))
	clk = 3
	r.Emit(LevelError, "mpi.peer.drop", TraceContext{}, Num("rank", 2))
	clk = 4
	r.Emit(LevelInfo, "serve.drain.begin", TraceContext{TraceID: 0xabc, SpanID: 2})

	all := r.Events(EventFilter{})
	if len(all) != 4 {
		t.Fatalf("got %d events, want 4", len(all))
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want dense ascending", i, ev.Seq)
		}
		if ev.When != float64(i+1) {
			t.Errorf("event %d stamped %v, want virtual clock %d", i, ev.When, i+1)
		}
		if ev.Rank != RankLocal {
			t.Errorf("local event %d has rank %d, want RankLocal", i, ev.Rank)
		}
	}
	retry := all[1]
	if retry.Name != "farm.task.retry" || retry.TraceID != 0xabc || len(retry.Fields) != 2 {
		t.Errorf("unexpected retry event: %+v", retry)
	}
	if v, ok := retry.Fields[0].StrValue(); !ok || v != "p0001" {
		t.Errorf("field 0 = %+v, want Str task=p0001", retry.Fields[0])
	}
	if v, ok := retry.Fields[1].NumValue(); !ok || v != 3 {
		t.Errorf("field 1 = %+v, want Num rank=3", retry.Fields[1])
	}

	if got := r.Events(EventFilter{MinLevel: LevelWarn}); len(got) != 2 {
		t.Errorf("MinLevel warn kept %d events, want 2", len(got))
	}
	if got := r.Events(EventFilter{Prefix: "farm."}); len(got) != 2 {
		t.Errorf("prefix farm. kept %d events, want 2", len(got))
	}
	if got := r.Events(EventFilter{TraceID: 0xabc}); len(got) != 2 {
		t.Errorf("trace filter kept %d events, want 2", len(got))
	}
	if got := r.Events(EventFilter{SinceSeq: 3}); len(got) != 1 || got[0].Seq != 4 {
		t.Errorf("SinceSeq 3 kept %v, want just seq 4", got)
	}
	if got := r.Events(EventFilter{Max: 2}); len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("Max 2 kept %v, want the newest two", got)
	}
}

// TestEventRingEviction fills the ring past capacity and checks the low
// end fell off while the retained window stays dense.
func TestEventRingEviction(t *testing.T) {
	r := New()
	const extra = 100
	for i := 0; i < eventRingCap+extra; i++ {
		r.Emit(LevelInfo, "test.ev.fill", TraceContext{}, Num("i", float64(i)))
	}
	evs := r.Events(EventFilter{})
	if len(evs) != eventRingCap {
		t.Fatalf("retained %d events, want ring capacity %d", len(evs), eventRingCap)
	}
	if evs[0].Seq != extra+1 {
		t.Errorf("oldest retained seq = %d, want %d", evs[0].Seq, extra+1)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window not dense at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestEventFieldTruncation checks the per-event attribute cap: extras
// are dropped rather than allocated.
func TestEventFieldTruncation(t *testing.T) {
	r := New()
	fields := make([]Field, maxEventFields+4)
	for i := range fields {
		fields[i] = Num(fmt.Sprintf("f%d", i), float64(i))
	}
	r.Emit(LevelInfo, "test.ev.wide", TraceContext{}, fields...)
	evs := r.Events(EventFilter{})
	if len(evs) != 1 || len(evs[0].Fields) != maxEventFields {
		t.Fatalf("got %d fields, want cap %d", len(evs[0].Fields), maxEventFields)
	}
}

// TestEventsConcurrent hammers the ring with parallel emitters while a
// reader snapshots through active eviction — the -race proof that the
// per-slot mutex keeps emit/read exact, never torn.
func TestEventsConcurrent(t *testing.T) {
	r := New()
	const emitters = 4
	const perEmitter = 2 * eventRingCap // force continuous wrap-around
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			for _, ev := range r.Events(EventFilter{}) {
				// A torn event would pair one emitter's name with
				// another's fields (or a stale field count).
				if len(ev.Fields) != 2 {
					t.Errorf("event %d has %d fields, want 2", ev.Seq, len(ev.Fields))
					return
				}
				w, ok := ev.Fields[0].NumValue()
				if !ok {
					t.Errorf("event %d field 0 not numeric", ev.Seq)
					return
				}
				if want := fmt.Sprintf("test.worker%d.emit", int(w)); ev.Name != want {
					t.Errorf("event %d torn: name %q, fields say %q", ev.Seq, ev.Name, want)
					return
				}
			}
		}
	}()
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("test.worker%d.emit", w)
			for i := 0; i < perEmitter; i++ {
				r.Emit(LevelInfo, name, TraceContext{}, Num("w", float64(w)), Num("i", float64(i)))
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	readWG.Wait()
	if got := r.EventCursor(); got != emitters*perEmitter {
		t.Errorf("cursor = %d, want %d (every emission claimed one seq)", got, emitters*perEmitter)
	}
}

// TestIngestEvents checks the master-side fold: ingested events keep
// the caller-assigned rank and clock and get fresh local sequence
// numbers.
func TestIngestEvents(t *testing.T) {
	r := New()
	r.Emit(LevelWarn, "test.local.first", TraceContext{})
	r.Ingest(nil, []Event{
		{When: 10, Level: LevelWarn, Name: "farm.compute.error", TraceID: 0x1, Rank: 3,
			Fields: []Field{Str("task", "p0001")}},
		{When: 11, Level: LevelError, Name: "farm.compute.error", Rank: 5},
	})
	evs := r.Events(EventFilter{SinceSeq: 1})
	if len(evs) != 2 {
		t.Fatalf("got %d ingested events, want 2", len(evs))
	}
	if evs[0].Rank != 3 || evs[1].Rank != 5 {
		t.Errorf("ranks = %d,%d, want 3,5", evs[0].Rank, evs[1].Rank)
	}
	if evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Errorf("ingested seqs = %d,%d, want local 2,3", evs[0].Seq, evs[1].Seq)
	}
}

// TestEventsHandler exercises /debug/events: NDJSON shape, every query
// filter, and the 400 paths.
func TestEventsHandler(t *testing.T) {
	r := New()
	r.Emit(LevelInfo, "serve.drain.begin", TraceContext{})
	r.Emit(LevelWarn, "farm.task.retry", TraceContext{TraceID: 0xbeef, SpanID: 1}, Num("rank", 2))
	r.Emit(LevelError, "farm.task.fail", TraceContext{TraceID: 0xbeef, SpanID: 2})
	srv := httptest.NewServer(EventsHandler(r))
	defer srv.Close()

	get := func(query string) []eventJSON {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
			t.Errorf("content type %q, want NDJSON", ct)
		}
		var out []eventJSON
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ej eventJSON
			if err := json.Unmarshal(sc.Bytes(), &ej); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			out = append(out, ej)
		}
		return out
	}

	if got := get(""); len(got) != 3 {
		t.Errorf("unfiltered: %d lines, want 3", len(got))
	}
	if got := get("?level=warn"); len(got) != 2 {
		t.Errorf("level=warn: %d lines, want 2", len(got))
	}
	if got := get("?prefix=farm.task."); len(got) != 2 {
		t.Errorf("prefix: %d lines, want 2", len(got))
	}
	got := get("?trace=000000000000beef")
	if len(got) != 2 || got[0].Trace != "000000000000beef" {
		t.Errorf("trace filter: %+v", got)
	}
	if got := get("?n=1"); len(got) != 1 || got[0].Name != "farm.task.fail" {
		t.Errorf("n=1 should keep the newest: %+v", got)
	}
	for _, bad := range []string{"?level=loud", "?trace=xyz", "?trace=0", "?n=-1"} {
		resp, err := srv.Client().Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestEmitAllocs pins the steady-state allocation budget of Emit: the
// fields are copied into slot-resident storage, so emitting allocates
// at most the variadic field slice at the call site — budget ≤1.
func TestEmitAllocs(t *testing.T) {
	r := New()
	tc := TraceContext{TraceID: 1, SpanID: 1}
	r.Emit(LevelWarn, "test.alloc.warm", tc, Num("a", 1), Str("b", "x")) // create the ring outside the measurement
	got := testing.AllocsPerRun(1000, func() {
		r.Emit(LevelWarn, "test.alloc.probe", tc, Num("a", 1), Str("b", "x"))
	})
	if got > 1 {
		t.Errorf("Emit allocates %.1f/op, budget is ≤1", got)
	}
}

// BenchmarkEventEmit times the emit hot path (TestEmitAllocs holds its
// ≤1 alloc/op budget).
func BenchmarkEventEmit(b *testing.B) {
	r := New()
	tc := TraceContext{TraceID: 1, SpanID: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(LevelWarn, "bench.ev.emit", tc, Num("rank", 3), Str("task", "p0001"))
	}
}
