package mpi

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// The frame and hello goldens pin the bottom of the wire: a change to
// either hex string is a protocol change and needs a version bump.
const (
	// dest 3, src 1, tag 7, three payload bytes.
	frameGoldenHex = "00000003" + "00000001" + "00000007" + "00000003" + "616263"
	// A hello frame: the -2 addressing travels as two's complement.
	helloFrameGoldenHex = "fffffffe" + "fffffffe" + "fffffffe" + "0000001e" + helloGoldenHex
	// "HELO", version 2, three capability names in sorted order.
	helloGoldenHex = "48454c4f" + "0002" + "0003" +
		"06" + "6576656e7473" + "08" + "68617364656c7461" + "05" + "7370616e73"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	return b
}

func TestFrameGolden(t *testing.T) {
	for _, g := range []struct {
		name           string
		dest, src, tag int
		payload        []byte
		hex            string
	}{
		{"application", 3, 1, 7, []byte("abc"), frameGoldenHex},
		{"hello", helloDest, helloSrc, helloTag, mustHex(t, helloGoldenHex), helloFrameGoldenHex},
	} {
		want := mustHex(t, g.hex)
		var buf bytes.Buffer
		if err := newFrameCodec(ProtoLatest).writeFrame(&buf, g.dest, g.src, g.tag, g.payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: frame bytes changed\n got %x\nwant %x", g.name, buf.Bytes(), want)
		}
		dest, src, tag, payload, err := newFrameCodec(ProtoV1).readFrame(bytes.NewReader(want))
		if err != nil || dest != g.dest || src != g.src || tag != g.tag || !bytes.Equal(payload, g.payload) {
			t.Errorf("%s: recorded frame reads as (%d, %d, %d, %x, %v)", g.name, dest, src, tag, payload, err)
		}
	}
}

// TestHelloGolden pins the hello payload with its capability names
// sorted: the encoder used to range over a map, so the bytes differed
// from run to run (decode never cared about the order).
func TestHelloGolden(t *testing.T) {
	want := mustHex(t, helloGoldenHex)
	info := peerInfo{proto: ProtoV2, caps: AllCaps}
	for i := 0; i < 20; i++ {
		if got := encodeHello(info); !bytes.Equal(got, want) {
			t.Fatalf("hello bytes changed\n got %x\nwant %x", got, want)
		}
	}
	if got, err := decodeHello(want); err != nil || got != info {
		t.Errorf("recorded hello decodes as %+v, %v", got, err)
	}
	if got := encodeHello(peerInfo{proto: ProtoV1}); !bytes.Equal(got, mustHex(t, "48454c4f"+"0001"+"0000")) {
		t.Errorf("capability-less hello = %x", got)
	}
}

// FuzzReadFrame: whatever bytes a socket delivers, reading frames never
// panics, never hands back more than maxFrame bytes, fails only with a
// short read or ErrProtocol, and a frame that reads writes back as the
// bytes it came from.
func FuzzReadFrame(f *testing.F) {
	f.Add(mustHex(f, frameGoldenHex))
	f.Add(mustHex(f, helloFrameGoldenHex))
	f.Add(mustHex(f, frameGoldenHex+helloFrameGoldenHex))
	f.Add(mustHex(f, frameGoldenHex)[:17])                   // payload cut short
	f.Add(mustHex(f, "000000000000000000000000"+"04000001")) // one past maxFrame
	f.Add(mustHex(f, "000000000000000000000000"+"ffffffff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fc := newFrameCodec(ProtoLatest)
		for {
			before := r.Len()
			dest, src, tag, payload, err := fc.readFrame(r)
			if len(payload) > maxFrame {
				t.Fatalf("readFrame handed back %d bytes, past maxFrame", len(payload))
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrProtocol) {
					t.Fatalf("readFrame failed with %v, want a short read or ErrProtocol", err)
				}
				return
			}
			var back bytes.Buffer
			if err := fc.writeFrame(&back, dest, src, tag, payload); err != nil {
				t.Fatal(err)
			}
			consumed := data[len(data)-before : len(data)-r.Len()]
			if !bytes.Equal(back.Bytes(), consumed) {
				t.Fatalf("frame does not survive its codec:\n read %x\nwrote %x", consumed, back.Bytes())
			}
		}
	})
}

// FuzzDecodeHello: a hello payload never panics the decoder, fails only
// with ErrProtocol, and what decodes re-encodes to a hello that decodes
// to the same negotiated view.
func FuzzDecodeHello(f *testing.F) {
	f.Add(mustHex(f, helloGoldenHex))
	f.Add(encodeHello(peerInfo{proto: ProtoV1}))
	f.Add(append(mustHex(f, helloGoldenHex), "trailing"...))
	for _, payload := range helloMalformed() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		info, err := decodeHello(payload)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("decodeHello failed with %v, want ErrProtocol", err)
			}
			return
		}
		if info.proto < ProtoV1 || info.caps&^AllCaps != 0 {
			t.Fatalf("decodeHello accepted %+v", info)
		}
		if again, err := decodeHello(encodeHello(info)); err != nil || again != info {
			t.Fatalf("hello %+v re-encodes to %+v, %v", info, again, err)
		}
	})
}
