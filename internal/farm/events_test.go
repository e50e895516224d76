package farm

import (
	"context"
	"math"
	"sync"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

func fieldNum(ev telemetry.Event, key string) (float64, bool) {
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.NumValue()
		}
	}
	return 0, false
}

func fieldStr(ev telemetry.Event, key string) (string, bool) {
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.StrValue()
		}
	}
	return "", false
}

// TestFleetAccounting drives the fleet book directly through one
// dispatch/complete/fail cycle and checks every counter, the EWMA update
// and the rank-sorted snapshot.
func TestFleetAccounting(t *testing.T) {
	f := NewFleet()
	f.dispatched(2, 3, 1.0)
	snap := f.Snapshot()
	if len(snap) != 1 || snap[0].Rank != 2 || snap[0].InFlight != 3 {
		t.Fatalf("after dispatch: %+v", snap)
	}
	f.completed(2, 3, 0.5, 2.0)
	f.taskFailed(2)
	f.dispatched(1, 1, 2.5)
	snap = f.Snapshot()
	if len(snap) != 2 || snap[0].Rank != 1 || snap[1].Rank != 2 {
		t.Fatalf("snapshot not rank-sorted: %+v", snap)
	}
	if snap[0].Failed != 0 {
		t.Errorf("rank 1 failed = %d, want 0", snap[0].Failed)
	}
	w2 := snap[1]
	if w2.InFlight != 0 || w2.Completed != 3 || w2.Failed != 1 {
		t.Errorf("rank 2 state = %+v", w2)
	}
	if w2.EWMASeconds != 0.5 {
		t.Errorf("first completion EWMA = %v, want the raw duration 0.5", w2.EWMASeconds)
	}
	if w2.LastSeen != 2.0 {
		t.Errorf("last seen = %v, want 2.0", w2.LastSeen)
	}
	// Second completion moves the EWMA by alpha of the difference.
	f.dispatched(2, 1, 3.0)
	f.completed(2, 1, 1.0, 4.0)
	snap = f.Snapshot()
	want := 0.5 + ewmaAlpha*(1.0-0.5)
	if got := snap[1].EWMASeconds; got != want {
		t.Errorf("EWMA after second completion = %v, want %v", got, want)
	}
	// A completion for an unknown rank must not drive in-flight negative.
	f.completed(9, 2, 0.1, 5.0)
	for _, w := range f.Snapshot() {
		if w.InFlight < 0 {
			t.Errorf("rank %d in-flight went negative: %d", w.Rank, w.InFlight)
		}
	}
	// A nil fleet discards everything without panicking.
	var nf *Fleet
	nf.dispatched(1, 1, 0)
	nf.completed(1, 1, 0, 0)
	nf.taskFailed(1)
	if nf.Snapshot() != nil {
		t.Error("nil fleet snapshot not nil")
	}
}

// TestFleetStragglerScore pins the z-score: a worker 3× slower than its
// uniform peers scores clearly positive, the peers negative, and a
// worker with no completions stays at zero.
func TestFleetStragglerScore(t *testing.T) {
	f := NewFleet()
	for rank, dur := range map[int]float64{1: 1.0, 2: 1.0, 3: 4.0} {
		f.dispatched(rank, 1, 0)
		f.completed(rank, 1, dur, 1)
	}
	f.dispatched(4, 1, 2) // dispatched but never completed
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("%d workers, want 4", len(snap))
	}
	if s := snap[2].StragglerScore; s < 1 {
		t.Errorf("slow worker z-score = %v, want > 1", s)
	}
	if snap[0].StragglerScore >= 0 || snap[1].StragglerScore >= 0 {
		t.Errorf("fast workers score positive: %+v", snap[:2])
	}
	if snap[3].StragglerScore != 0 {
		t.Errorf("completion-less worker scored %v, want 0", snap[3].StragglerScore)
	}
	// Uniform fleet: zero variance, all scores zero.
	u := NewFleet()
	for rank := 1; rank <= 3; rank++ {
		u.dispatched(rank, 1, 0)
		u.completed(rank, 1, 0.25, 1)
	}
	for _, w := range u.Snapshot() {
		if w.StragglerScore != 0 {
			t.Errorf("uniform fleet rank %d scored %v, want 0", w.Rank, w.StragglerScore)
		}
	}
}

// TestEventPayloadRoundtrip packs a mixed batch of events through the
// wire codec and expects everything except Seq (assigned at ingest) and
// Rank (attributed by the master) to survive bit-exactly.
func TestEventPayloadRoundtrip(t *testing.T) {
	evs := []telemetry.Event{
		{
			When: 1.5, Level: telemetry.LevelWarn, Name: "farm.compute.error",
			TraceID: 0xdeadbeefcafef00d,
			Fields: []telemetry.Field{
				telemetry.Str("task", "job-01"),
				telemetry.Str("err", "boom"),
				telemetry.Num("attempt", 2),
			},
		},
		{
			When: 2.5, Level: telemetry.LevelError, Name: "farm.worker.exit",
			Fields: []telemetry.Field{telemetry.Num("rank", 3)},
		},
		// Same name again: the intern table must map both to one entry.
		{When: 3.25, Level: telemetry.LevelWarn, Name: "farm.compute.error"},
	}
	var wr workerRecords
	if ok, _ := decodeRecords(wireResult(t, "job-01", 1), &wr); ok {
		t.Fatal("task result misrecognised as event payload")
	}
	if ok, err := decodeRecords(encodeEventPayload(evs, 42.5), &wr); !ok || err != nil {
		t.Fatalf("event payload: recognised %v, err %v", ok, err)
	}
	got, recvAt := wr.events, wr.recvAt
	if recvAt != 42.5 {
		t.Errorf("recvAt = %v, want 42.5", recvAt)
	}
	if len(got) != len(evs) {
		t.Fatalf("%d events back, want %d", len(got), len(evs))
	}
	for i, ev := range got {
		want := evs[i]
		if ev.Name != want.Name || ev.Level != want.Level || ev.When != want.When || ev.TraceID != want.TraceID {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
		if ev.Rank != telemetry.RankLocal {
			t.Errorf("event %d rank = %d before attribution, want RankLocal", i, ev.Rank)
		}
		if len(ev.Fields) != len(want.Fields) {
			t.Errorf("event %d has %d fields, want %d", i, len(ev.Fields), len(want.Fields))
			continue
		}
		for j, f := range ev.Fields {
			if f.Key != want.Fields[j].Key || f.Value() != want.Fields[j].Value() {
				t.Errorf("event %d field %d = %v=%v, want %v=%v",
					i, j, f.Key, f.Value(), want.Fields[j].Key, want.Fields[j].Value())
			}
		}
	}
}

// corruption is one way a hostile or skewed peer could garble a bundle;
// the reject tests apply each to a good bundle and the fuzz targets start
// from the results.
type corruption struct {
	name   string
	mutate func(h *nsp.Hash)
}

// set returns a mutation that replaces a column with the given values.
func set(key string, vs ...float64) func(*nsp.Hash) {
	return func(h *nsp.Hash) { h.Set(key, nsp.RowVec(vs...)) }
}

func goodEventPayload() *nsp.Hash {
	return encodeEventPayload([]telemetry.Event{{
		When: 1, Level: telemetry.LevelWarn, Name: "farm.compute.error",
		Fields: []telemetry.Field{telemetry.Str("task", "job-01")},
	}}, 1)
}

var eventCorruptions = []corruption{
	{"missing levels", func(h *nsp.Hash) { h.Del(eventLevels) }},
	{"levels are strings", func(h *nsp.Hash) { h.Set(eventLevels, nsp.NewSMat(1, 1)) }},
	{"name index out of range", set(nameIxKey, 7)},
	{"fractional field count", set(eventNFields, 0.5)},
	{"field count overruns arrays", set(eventNFields, 9)},
	{"field rows unclaimed", set(eventNFields, 0)},
	{"trace halves truncated", func(h *nsp.Hash) { h.Set(tracesKey, nsp.NewMat(1, 1)) }},
	{"trace half out of range", set(tracesKey, 1, 1<<32)},
	{"string value index dangles", func(h *nsp.Hash) { h.Set(eventStrs, nsp.NewSMat(1, 0)) }},
	{"string flag is not 0/1", set(eventFieldStr, 2)},
	{"recvat malformed", func(h *nsp.Hash) { h.Set(recvAtKey, nsp.NewMat(1, 2)) }},
	// Levels no worker can emit: a cast would file them as level(44),
	// level(-1), info, debug and debug.
	{"level 300", set(eventLevels, 300)},
	{"level -1", set(eventLevels, -1)},
	{"level 1.5", set(eventLevels, 1.5)},
	{"level NaN", set(eventLevels, math.NaN())},
	{"level 1e300", set(eventLevels, 1e300)},
	// Times that would poison every duration computed from them.
	{"when NaN", set(eventWhens, math.NaN())},
	{"when +Inf", set(eventWhens, math.Inf(1))},
	{"recvat NaN", set(recvAtKey, math.NaN())},
	{"recvat -Inf", set(recvAtKey, math.Inf(-1))},
}

func goodSpanPayload() *nsp.Hash {
	return encodeSpanPayload([]telemetry.SpanRecord{
		{ID: 1<<63 + 7, ParentID: 3, TraceID: 9, Name: "farm.compute", Start: 1.5, End: 2.25},
	}, 1.25)
}

var spanCorruptions = []corruption{
	{"missing ids", func(h *nsp.Hash) { h.Del(spanIDs) }},
	{"names are floats", func(h *nsp.Hash) { h.Set(namesKey, nsp.NewMat(1, 1)) }},
	{"name index out of range", set(nameIxKey, 1)},
	{"name index fractional", set(nameIxKey, 0.5)},
	{"id halves truncated", set(spanIDs, 1)},
	{"id half negative", set(spanIDs, -1, 0)},
	{"span without an ID", set(spanIDs, 0, 0)},
	{"lengths disagree", set(spanStarts, 1, 2)},
	{"start NaN", set(spanStarts, math.NaN())},
	{"end +Inf", set(spanEnds, math.Inf(1))},
	{"recvat NaN", set(recvAtKey, math.NaN())},
	{"recvat malformed", func(h *nsp.Hash) { h.Set(recvAtKey, nsp.NewMat(1, 2)) }},
}

// TestEventPayloadRejectsMalformed feeds the decoder the corruptions a
// hostile or skewed peer could ship: wrong container type, missing
// arrays, dangling intern indices, disagreeing lengths, and levels and
// times no worker can produce.
func TestEventPayloadRejectsMalformed(t *testing.T) {
	testRecordsRejectMalformed(t, goodEventPayload, eventCorruptions)
}

// TestSpanPayloadRejectsMalformed is the span payload's twin.
func TestSpanPayloadRejectsMalformed(t *testing.T) {
	testRecordsRejectMalformed(t, goodSpanPayload, spanCorruptions)
}

func testRecordsRejectMalformed(t *testing.T, good func() *nsp.Hash, corrupt []corruption) {
	var wr workerRecords
	if ok, err := decodeRecords(good(), &wr); !ok || err != nil {
		t.Fatalf("good payload: recognised %v, err %v", ok, err)
	}
	for _, tc := range corrupt {
		h := good()
		tc.mutate(h)
		wr = workerRecords{}
		ok, err := decodeRecords(h, &wr)
		if !ok || err == nil {
			t.Errorf("%s: corrupted payload accepted (recognised %v)", tc.name, ok)
		}
		if wr.spans != nil || wr.events != nil {
			t.Errorf("%s: rejected payload still left records behind", tc.name)
		}
	}
}

// runEventFarm runs one flat round on an in-process world with a
// registry of its own on every worker rank — the distributed shape, where
// worker events reach the master only over the wire — and exec on each.
// mopts are the master's.
func runEventFarm(t *testing.T, run masterFunc, exec Executor, workers int, tasks []Task, mopts Options) []Result {
	t.Helper()
	w := mpi.NewLocalWorld(workers + 1)
	defer w.Close()
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wopts := mopts
			wopts.Telemetry = telemetry.New()
			wopts.Fleet = nil
			if err := RunWorker(w.Comm(rank), exec, nil, wopts); err != nil {
				t.Errorf("worker %d: %v", rank, err)
			}
		}(r)
	}
	results, err := run(context.Background(), w.Comm(0), tasks, LiveLoader{}, mopts)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return results
}
