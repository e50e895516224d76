package nsp

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// codecGolden pins the serialized stream of one value of each of the nine
// kinds, plus the shapes a symmetric encode/decode slip would pass a round
// trip with: a hash nested in a list, a compressed serial and a
// WireFormer. The hex was recorded before the codec was rewritten as one
// encoder/decoder pair; a change here is a wire-format change.
func codecGolden() []struct {
	name string
	obj  Object
	hex  string
} {
	sp := NewSpMat(2, 3)
	sp.Set(0, 2, 2.5)
	sp.Set(1, 0, -1)
	cells := NewCells(1, 3)
	cells.Set(0, 0, Scalar(1))
	cells.Set(0, 2, Str("c"))
	hash := NewHash()
	hash.Set("b", Scalar(1))
	hash.Set("a", Str("x"))
	inner := NewHash()
	inner.Set("k", NewList(Bool(false)))
	// The compressed serial carries a recorded flate stream (of
	// Serialize(Scalar(42))), not one made here: the golden pins the
	// codec, not compress/flate's choices.
	deflated, _ := hex.DecodeString("f20b0e7062606464606000630757063000040000ffff")
	return []struct {
		name string
		obj  Object
		hex  string
	}{
		{"mat", &Mat{Rows: 2, Cols: 2, Data: []float64{1.5, -2, math.Inf(1), 0}},
			"4e5350420001010000000200000002" + "3ff8000000000000" + "c000000000000000" + "7ff0000000000000" + "0000000000000000"},
		{"bmat", &BMat{Rows: 1, Cols: 3, Data: []bool{true, false, true}},
			"4e5350420001020000000100000003" + "010001"},
		{"smat", &SMat{Rows: 1, Cols: 2, Data: []string{"", "héllo"}},
			"4e5350420001030000000100000002" + "00000000" + "0000000668c3a96c6c6f"},
		{"list", NewList(Str("s"), Bool(true), RowVec(1, 2)),
			"4e53504200010400000003" +
				"0300000001000000010000000173" +
				"02000000010000000101" +
				"0100000001000000023ff00000000000004000000000000000"},
		{"hash", hash,
			"4e53504200010500000002" +
				"0000000161" + "0300000001000000010000000178" +
				"0000000162" + "0100000001000000013ff0000000000000"},
		{"serial", &Serial{Data: []byte{0xde, 0xad}},
			"4e53504200010600" + "00000002dead"},
		{"serial compressed", &Serial{Compressed: true, Data: deflated},
			"4e53504200010601" + "00000016f20b0e7062606464606000630757063000040000ffff"},
		{"imat", &IMat{Rows: 2, Cols: 1, Data: []int64{-1, 1 << 40}},
			"4e5350420001070000000200000001" + "ffffffffffffffff" + "0000010000000000"},
		{"cells", cells,
			"4e5350420001080000000100000003" +
				"01" + "0100000001000000013ff0000000000000" +
				"00" +
				"01" + "0300000001000000010000000163"},
		{"spmat", sp,
			"4e5350420001090000000200000003" + "00000002" +
				"00000000000000024004000000000000" +
				"0000000100000000bff0000000000000"},
		{"hash in list", NewList(inner),
			"4e53504200010400000001" + "0500000001" + "000000016b" +
				"0400000001" + "02000000010000000100"},
		{"wireformer", &point{x: 1.5, y: -2},
			"4e53504200010500000002" +
				"0000000178" + "0100000001000000013ff8000000000000" +
				"0000000179" + "010000000100000001c000000000000000"},
	}
}

// TestCodecGolden: every golden value serializes to its recorded bytes,
// and the recorded bytes decode to a value that serializes to them again.
func TestCodecGolden(t *testing.T) {
	for _, g := range codecGolden() {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", g.name, err)
		}
		s, err := Serialize(g.obj)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(s.Data, want) {
			t.Errorf("%s: stream changed\n got %x\nwant %x", g.name, s.Data, want)
		}
		back, err := SLoadBytes(want).Unserialize()
		if err != nil {
			t.Fatalf("%s: recorded stream does not decode: %v", g.name, err)
		}
		again, err := Serialize(back)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(again.Data, want) {
			t.Errorf("%s: decoded value re-encodes differently\n got %x\nwant %x", g.name, again.Data, want)
		}
		// The compressed golden really is Scalar(42) behind flate.
		if c, ok := g.obj.(*Serial); ok && c.Compressed {
			if v, err := c.Unserialize(); err != nil || !v.Equal(Scalar(42)) {
				t.Errorf("%s: unserialized to %v, %v; want Scalar(42)", g.name, v, err)
			}
		}
	}
}

// TestDecodeDoesNotAliasInput: the decoder slices the bytes it is handed,
// and an mpi frame's bytes live in a scratch buffer the next frame
// overwrites, so nothing decoded may point into them.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, g := range codecGolden() {
		stream, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", g.name, err)
		}
		want, err := SLoadBytes(bytes.Clone(stream)).Unserialize()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got, err := SLoadBytes(stream).Unserialize()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := range stream {
			stream[i] = 0xa5
		}
		if !got.Equal(want) {
			t.Errorf("%s: decoded value changed when its stream was overwritten:\n got %v\nwant %v", g.name, got, want)
		}
	}
}
