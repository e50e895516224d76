package farm

import (
	"bytes"
	"testing"

	"riskbench/internal/nsp"
)

// The fuzz targets drive the two decoders a socket reaches — the batch
// descriptor on a worker, the telemetry payloads on a master — through
// nsp.Unserialize, the way a frame's bytes arrive. Whatever the bytes
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
