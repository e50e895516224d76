package nsp

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
)

// nestedLists is the stream of depth one-element lists around a scalar:
// five bytes a level.
func nestedLists(t testing.TB, depth int) []byte {
	leaf, err := Serialize(Scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	stream := append(make([]byte, 0, 6+5*depth+len(leaf.Data)), leaf.Data[:6]...)
	for i := 0; i < depth; i++ {
		stream = append(stream, byte(KindList), 0, 0, 0, 1)
	}
	return append(stream, leaf.Data[6:]...)
}

// TestDecodeDepthBounded: decode recursed once per nested list with no
// bound, so ten megabytes of nested one-element lists — 15 % of a frame —
// ended the process in a stack overflow no recover can catch. Deeper than
// maxDepth is now a malformed stream.
func TestDecodeDepthBounded(t *testing.T) {
	if _, err := SLoadBytes(nestedLists(t, maxDepth-1)).Unserialize(); err != nil {
		t.Errorf("%d levels (the bound) rejected: %v", maxDepth, err)
	}
	for _, depth := range []int{maxDepth, 2_000_000} {
		stream := nestedLists(t, depth)
		if _, err := SLoadBytes(stream).Unserialize(); !errors.Is(err, ErrBadStream) {
			t.Errorf("%d-byte stream nesting %d levels: err = %v, want ErrBadStream", len(stream), depth+1, err)
		}
	}
}

// zeroBomb is a compressed serial of mib MiB of zeros, about a thousandth
// of that in bytes. It is assembled, not compressed: one MiB deflated from
// a fresh window and flushed is a byte-aligned run of blocks that refers
// to nothing before itself, so it repeats as often as wanted ahead of the
// closing block.
func zeroBomb(t testing.TB, mib int) *Serial {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	oneMiB := bytes.Clone(buf.Bytes())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	closing := buf.Bytes()[len(oneMiB):]
	return &Serial{Compressed: true, Data: append(bytes.Repeat(oneMiB, mib), closing...)}
}

// TestInflationBounded: a compressed serial used to inflate to whatever
// it claimed, so a frame of about half a megabyte (512 MiB of zeros) cost
// its receiver 2.8 GiB of allocation before the stream was even looked
// at. Inflation now stops one byte past maxInflate, whatever the claim.
func TestInflationBounded(t *testing.T) {
	if small, err := zeroBomb(t, 3).inflated(); err != nil {
		t.Fatalf("a 3 MiB serial of zeros: %v", err)
	} else if len(small) != 3<<20 {
		t.Fatalf("a 3 MiB serial of zeros inflated to %d bytes", len(small))
	}
	const claim = 512 << 20
	bomb := zeroBomb(t, claim>>20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := bomb.Unserialize()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadStream) {
		t.Errorf("a %d-byte bomb: err = %v, want ErrBadStream", len(bomb.Data), err)
	}
	// io.ReadAll's growth allocates between five and six times what it
	// ends up holding.
	if got := after.TotalAlloc - before.TotalAlloc; got > 6*maxInflate {
		t.Errorf("a %d-byte bomb claiming %d bytes allocated %d: want a small multiple of the %d-byte cap, not of the claim",
			len(bomb.Data), claim, got, maxInflate)
	}
}

// FuzzUnserialize: whatever bytes arrive, decoding never panics and fails
// only with ErrBadStream; and what does decode re-encodes to a stream that
// decodes and re-encodes to itself (the first decode may drop what the
// encoder never writes: unsorted or repeated hash keys, trailing bytes).
func FuzzUnserialize(f *testing.F) {
	for _, g := range codecGolden() {
		stream, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream)
	}
	for _, stream := range garbageStreams() {
		f.Add(stream)
	}
	whole := truncatable(f).Data
	for cut := range whole {
		f.Add(whole[:cut])
	}
	f.Add(nestedLists(f, maxDepth-1))
	f.Add(nestedLists(f, maxDepth))
	f.Add(nestedLists(f, 4*maxDepth))
	for _, c := range claimStreams() {
		f.Add(append(c.header, 0xff, 0xff, 0xff, 0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := SLoadBytes(data).Unserialize()
		if err != nil {
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("decode failed with %v, want ErrBadStream", err)
			}
			return
		}
		first, err := Serialize(o)
		if err != nil {
			t.Fatalf("a decoded %v does not encode: %v", o.Kind(), err)
		}
		back, err := first.Unserialize()
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%x", err, first.Data)
		}
		if second, err := Serialize(back); err != nil || !bytes.Equal(first.Data, second.Data) {
			t.Fatalf("object does not survive its codec: %v\n first %x\nsecond %x", err, first.Data, second.Data)
		}
	})
}
