package farm

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
)

// The fuzz targets drive the two decoders a socket reaches — the batch
// descriptor on a worker, the telemetry payloads on a master — through
// nsp.Unserialize, the way a frame's bytes arrive, and the master's whole
// reply path (FuzzWorkerReply). Whatever the bytes
// are, decoding must not panic; and whatever decodes must survive its
// own codec: re-encoded, it decodes again, to records that re-encode to
// the same bytes. Seeds are the golden wire bytes plus every corruption
// the reject tests know; `make fuzz` explores from there.

func seedGolden(f *testing.F) {
	for _, fx := range wireGolden() {
		f.Add(wireBytes(f, fx))
	}
}

func seedCorrupt(f *testing.F, good func() *nsp.Hash, corrupt []corruption) {
	for _, tc := range corrupt {
		h := good()
		tc.mutate(h)
		f.Add(wireBytes(f, wireFixture{name: tc.name, build: hashOf(h)}))
	}
}

// rewire sends an object through the nsp codec, as a framed transport
// would, and returns the bytes and what they decode to.
func rewire(t *testing.T, o nsp.Object) ([]byte, nsp.Object) {
	t.Helper()
	data := wireBytes(t, wireFixture{name: "re-encoded", build: func() (nsp.Object, error) { return o, nil }})
	back, err := nsp.SLoadBytes(data).Unserialize()
	if err != nil {
		t.Fatalf("re-encoded bytes do not unserialize: %v", err)
	}
	return data, back
}

func FuzzDecodeBatch(f *testing.F) {
	seedGolden(f)
	seedCorrupt(f, goodBatch, batchCorruptions)
	encode := func(d batchDesc) *nsp.Hash {
		tasks := make([]Task, len(d.Names))
		for i := range tasks {
			tasks[i] = Task{Name: d.Names[i], Cost: d.Costs[i], Data: make([]byte, int(d.Sizes[i]))}
		}
		return encodeBatch(tasks, d.Trace)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := nsp.SLoadBytes(data).Unserialize()
		if err != nil {
			return
		}
		d, err := decodeBatch(obj)
		if err != nil {
			return
		}
		for _, size := range d.Sizes {
			if size > 1<<16 {
				t.Skip("declares payloads too large to rebuild")
			}
		}
		first, back := rewire(t, encode(d))
		again, err := decodeBatch(back)
		if err != nil {
			t.Fatalf("re-encoded descriptor rejected: %v", err)
		}
		if second, _ := rewire(t, encode(again)); !bytes.Equal(first, second) {
			t.Fatalf("descriptor does not survive its codec:\n first %x\nsecond %x", first, second)
		}
	})
}

func FuzzDecodeRecords(f *testing.F) {
	seedGolden(f)
	seedCorrupt(f, goodSpanPayload, spanCorruptions)
	seedCorrupt(f, goodEventPayload, eventCorruptions)
	// encode packs whichever half the payload filled; a decoded payload
	// with no rows re-encodes as its empty form.
	encode := func(wr workerRecords, spans bool) *nsp.Hash {
		if spans {
			return encodeSpanPayload(wr.spans, wr.recvAt)
		}
		return encodeEventPayload(wr.events, wr.recvAt)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := nsp.SLoadBytes(data).Unserialize()
		if err != nil {
			return
		}
		var wr workerRecords
		if ok, err := decodeRecords(obj, &wr); !ok || err != nil {
			return
		}
		_, spans := obj.(*nsp.Hash).Get(spanMarker)
		first, back := rewire(t, encode(wr, spans))
		var again workerRecords
		if ok, err := decodeRecords(back, &again); !ok || err != nil {
			t.Fatalf("re-encoded payload: recognised %v, err %v", ok, err)
		}
		if second, _ := rewire(t, encode(again, spans)); !bytes.Equal(first, second) {
			t.Fatalf("records do not survive their codec:\n first %x\nsecond %x", first, second)
		}
	})
}

// replyTasks are the tasks FuzzWorkerReply's batches are cut from.
var replyTasks = []Task{{Name: "job-00"}, {Name: "job-01"}, {Name: "job-02"}}

// replyBytes is a worker's result frame answering the named tasks, plus
// whatever trailing payloads records appends.
func replyBytes(f *testing.F, names []string, failed bool, records ...nsp.Object) []byte {
	return wireBytes(f, wireFixture{name: "reply", build: func() (nsp.Object, error) {
		out := nsp.NewList()
		for _, name := range names {
			p := &Priced{Name: name, Result: goldenResult, Seconds: 0.001953125}
			if failed {
				p = &Priced{Name: name, Err: errors.New("boom")}
			}
			out.Add(p)
		}
		for _, r := range records {
			out.Add(r)
		}
		return out, nil
	}})
}

// FuzzWorkerReply drives the master's reply path — recvResults, then
// the dispatcher's placement — with arbitrary bytes arriving as a
// worker's result frame for a batch of 1–3 tasks. No input may panic;
// a reply the master accepts finishes the round with one result per
// task, at its task's index and carrying its task's name.
func FuzzWorkerReply(f *testing.F) {
	for n := 1; n <= len(replyTasks); n++ {
		names := make([]string, n)
		for i := range names {
			names[i] = replyTasks[i].Name
		}
		f.Add(uint8(n), replyBytes(f, names, false))
		f.Add(uint8(n), replyBytes(f, names, true, encodeSpanPayload(goldenSpans, 1.25), encodeEventPayload(goldenEvents, 42.5)))
		f.Add(uint8(n), replyBytes(f, names[:n-1], false))
		f.Add(uint8(n), replyBytes(f, append(names, names[0]), false))
		misnamed := slices.Clone(names)
		misnamed[n-1] = "job-99"
		f.Add(uint8(n), replyBytes(f, misnamed, false))
	}
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		tasks := replyTasks[:1+int(n)%len(replyTasks)]
		w := mpi.NewLocalWorld(2)
		defer w.Close()
		d := newDispatcher(w.Comm(0), []int{1}, LiveLoader{})
		r := d.submit(context.Background(), [][]Task{tasks}, sharedQueue, Options{Strategy: NFSLoad})
		if err := d.feed(1); err != nil {
			t.Fatal(err)
		}
		if err := w.Comm(1).Send(data, 0, TagResult); err != nil {
			t.Fatal(err)
		}
		rep, err := recvResults(w.Comm(0))
		if err == nil {
			err = d.onReply(rep)
		}
		if err != nil {
			if r.finished {
				t.Fatalf("the round finished on a refused reply: %v", err)
			}
			return
		}
		if !r.finished || r.err != nil || len(r.results) != len(tasks) {
			t.Fatalf("accepted reply left the round finished %v, err %v, %d results for %d tasks", r.finished, r.err, len(r.results), len(tasks))
		}
		for i, res := range r.results {
			if res.Name != tasks[i].Name || res.Worker != 1 {
				t.Fatalf("result %d is %q from rank %d, want %q from rank 1", i, res.Name, res.Worker, tasks[i].Name)
			}
		}
	})
}
