package nsp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip serializes o and unserializes the result.
func roundTrip(t *testing.T, o Object) Object {
	t.Helper()
	s, err := Serialize(o)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	back, err := s.Unserialize()
	if err != nil {
		t.Fatalf("Unserialize: %v", err)
	}
	return back
}

func TestRoundTripMat(t *testing.T) {
	m := NewMat(3, 4)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.5
	}
	if !roundTrip(t, m).Equal(m) {
		t.Fatal("matrix round trip lost data")
	}
}

func TestRoundTripEmptyMat(t *testing.T) {
	m := NewMat(0, 0)
	back := roundTrip(t, m)
	if !back.Equal(m) {
		t.Fatal("empty matrix round trip failed")
	}
}

func TestRoundTripSpecialFloats(t *testing.T) {
	m := RowVec(math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64)
	back := roundTrip(t, m).(*Mat)
	for i, v := range m.Data {
		if math.Float64bits(back.Data[i]) != math.Float64bits(v) {
			t.Fatalf("bit pattern changed at %d: %x -> %x", i, math.Float64bits(v), math.Float64bits(back.Data[i]))
		}
	}
	// NaN must round-trip by bit pattern too.
	n := Scalar(math.NaN())
	backN := roundTrip(t, n).(*Mat)
	if !math.IsNaN(backN.Data[0]) {
		t.Fatal("NaN did not survive")
	}
}

func TestRoundTripBMat(t *testing.T) {
	m := &BMat{Rows: 2, Cols: 3, Data: make([]bool, 6)}
	m.Data[0], m.Data[4] = true, true
	if !roundTrip(t, m).Equal(m) {
		t.Fatal("bool matrix round trip lost data")
	}
}

func TestRoundTripSMat(t *testing.T) {
	m := NewSMat(2, 2)
	m.Data = []string{"", "héllo", "a\x00b", "paper"}
	if !roundTrip(t, m).Equal(m) {
		t.Fatal("string matrix round trip lost data")
	}
}

func TestRoundTripNestedList(t *testing.T) {
	// Mirror the paper's example: A=list('string',%t,rand(4,4)).
	inner := NewMat(4, 4)
	for i := range inner.Data {
		inner.Data[i] = rand.Float64()
	}
	l := NewList(Str("string"), Bool(true), inner)
	if !roundTrip(t, l).Equal(l) {
		t.Fatal("list round trip lost data")
	}
}

func TestRoundTripHash(t *testing.T) {
	h := NewHash()
	h.Set("A", RowVec(1, 2, 3, 4))
	h.Set("B", NewList(Str("foo"), RowVec(1, 2, 3, 4), Str("bar")))
	h.Set("empty", NewList())
	if !roundTrip(t, h).Equal(h) {
		t.Fatal("hash round trip lost data")
	}
}

func TestRoundTripNestedSerial(t *testing.T) {
	// Paper: serialize a sparse object, send the Serial inside messages.
	s, err := Serialize(Scalar(42))
	if err != nil {
		t.Fatal(err)
	}
	l := NewList(s, Str("wrapped"))
	back := roundTrip(t, l).(*List)
	innerSerial := back.Items[0].(*Serial)
	inner, err := innerSerial.Unserialize()
	if err != nil {
		t.Fatal(err)
	}
	if !inner.Equal(Scalar(42)) {
		t.Fatal("nested serial content lost")
	}
}

func TestRoundTripDeepNesting(t *testing.T) {
	o := Object(Scalar(1))
	for i := 0; i < 50; i++ {
		o = NewList(o, Str("level"))
	}
	if !roundTrip(t, o).Equal(o) {
		t.Fatal("deep nesting round trip failed")
	}
}

func TestSerializeDeterministic(t *testing.T) {
	h := NewHash()
	h.Set("z", Scalar(1))
	h.Set("a", Scalar(2))
	h.Set("m", Str("x"))
	s1, err := Serialize(h)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Serialize(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Data, s2.Data) {
		t.Fatal("serialization of a hash is not deterministic")
	}
}

// retiredKinds are the streams this codec recorded for kind bytes 7, 8
// and 9 — an int matrix, cells and a sparse matrix, the kinds nothing
// ships — each at the top level and inside a list. All are now an unknown
// kind.
func retiredKinds() [][]byte {
	var out [][]byte
	for _, h := range []string{
		"4e5350420001070000000200000001" + "ffffffffffffffff" + "0000010000000000",
		"4e5350420001080000000100000003" + "01" + "0100000001000000013ff0000000000000" + "00" + "01" + "0300000001000000010000000163",
		"4e5350420001090000000200000003" + "00000002" + "00000000000000024004000000000000" + "0000000100000000bff0000000000000",
	} {
		stream, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		out = append(out, stream, append([]byte("NSPB\x00\x01\x04\x00\x00\x00\x01"), stream[6:]...))
	}
	return out
}

// garbageStreams is every known-bad stream; FuzzUnserialize seeds from it
// too.
func garbageStreams() [][]byte {
	return append([][]byte{
		nil,
		{1, 2, 3},
		[]byte("XXXX\x00\x01"),
		[]byte("NSPB\x00\x09\x01"), // bad version
		[]byte("NSPB\x00\x01\xff"), // unknown kind
		[]byte("NSPB\x00\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff"),        // huge dims
		append([]byte("NSPB\x00\x01\x01\x00\x00\x00\x02\x00\x00\x00"), 2), // truncated data
	}, retiredKinds()...)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for i, data := range garbageStreams() {
		if _, err := SLoadBytes(data).Unserialize(); !errors.Is(err, ErrBadStream) {
			t.Errorf("case %d: err = %v, want ErrBadStream", i, err)
		}
	}
	for i, data := range retiredKinds() {
		if _, err := SLoadBytes(data).Unserialize(); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("retired kind stream %d: err = %v, want an unknown kind", i, err)
		}
	}
}

// allocatedBy is how many bytes f allocated, freed or not.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocatesWhatArrives: a header may claim maxDim elements in a
// dozen bytes, so decode sizes nothing by a claim the stream's bytes do not
// back. A 23-byte stream declaring a 2^14 × 2^14 matrix used to cost a
// 2 GiB allocation before failing.
func TestDecodeAllocatesWhatArrives(t *testing.T) {
	hostile := []byte("NSPB\x00\x01\x01\x00\x00\x40\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	var err error
	got := allocatedBy(func() { _, err = (&Serial{Data: hostile}).Unserialize() })
	if err == nil {
		t.Fatal("truncated 2^28-element matrix decoded without error")
	}
	if got > 1<<20 {
		t.Errorf("a %d-byte stream made decode allocate %d bytes", len(hostile), got)
	}
	// Objects longer than the slots allocated up front still round-trip.
	big := NewMat(3, maxSlots)
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	names := NewSMat(1, maxSlots+1)
	names.Data[maxSlots] = strings.Repeat("x", maxSlots+1)
	for _, o := range []Object{big, names, &Serial{Data: make([]byte, 2*maxSlots)}} {
		if !roundTrip(t, o).Equal(o) {
			t.Errorf("%v object longer than maxSlots changed in the round trip", o.Kind())
		}
	}
}

// claimStreams is, for every place a stream declares a length, a header
// claiming 2^28 of them — every kind's elements, a string's and a serial's
// bytes — and one claim the stream's bytes do back but whose slots would
// be four times those bytes. FuzzUnserialize seeds from the headers.
func claimStreams() []struct {
	name   string
	header []byte
} {
	const stream = "NSPB\x00\x01"
	const side = "\x00\x00\x40\x00" // 2^14: a matrix of 2^28 elements
	const all = "\x10\x00\x00\x00"  // 2^28
	matrix := func(k Kind) []byte { return []byte(stream + string(rune(k)) + side + side) }
	return []struct {
		name   string
		header []byte
	}{
		{"mat", matrix(KindMat)},
		{"bmat", matrix(KindBMat)},
		{"smat", matrix(KindSMat)},
		{"list", []byte(stream + string(rune(KindList)) + all)},
		{"hash", []byte(stream + string(rune(KindHash)) + all)},
		{"serial", []byte(stream + string(rune(KindSerial)) + "\x00" + all)},
		{"string", []byte(stream + string(rune(KindSMat)) + "\x00\x00\x00\x01\x00\x00\x00\x01" + all)},
		{"hash key", []byte(stream + string(rune(KindHash)) + "\x00\x00\x00\x01" + all)},
		{"2^21 backed strings", []byte(stream + string(rune(KindSMat)) + "\x00\x00\x00\x01\x00\x20\x00\x00")},
	}
}

// TestDecodeClaimsBounded: a header cannot claim more than its stream
// holds. Each claim sits on 8 MiB of 0xff, far more than the 64 Ki
// elements the old decoder allocated before growing, and must fail having
// allocated no more than a small multiple of the stream itself.
func TestDecodeClaimsBounded(t *testing.T) {
	tail := bytes.Repeat([]byte{0xff}, 8<<20)
	for _, c := range claimStreams() {
		stream := append(c.header, tail...)
		var err error
		got := allocatedBy(func() { _, err = SLoadBytes(stream).Unserialize() })
		if !errors.Is(err, ErrBadStream) {
			t.Errorf("%s: err = %v, want ErrBadStream", c.name, err)
		}
		if budget := uint64(2*len(stream) + 2<<20); got > budget {
			t.Errorf("%s: a %d-byte stream made decode allocate %d bytes, want <= %d", c.name, len(stream), got, budget)
		}
	}
}

// truncatable is the valid stream TestDecodeTruncatedEverywhere cuts at
// every offset; FuzzUnserialize seeds from the same cuts.
func truncatable(t testing.TB) *Serial {
	h := NewHash()
	h.Set("A", RowVec(1, 2, 3))
	h.Set("B", NewList(Str("s"), Bool(false)))
	s, err := Serialize(h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecodeTruncatedEverywhere(t *testing.T) {
	// Truncating a valid stream at any point must produce an error, never a
	// panic or a silent success.
	s := truncatable(t)
	for cut := 0; cut < len(s.Data); cut++ {
		trunc := &Serial{Data: s.Data[:cut]}
		if _, err := trunc.Unserialize(); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// genObject builds a random object tree for the property test.
func genObject(r *rand.Rand, depth int) Object {
	kind := r.Intn(6)
	if depth <= 0 {
		kind = r.Intn(3) // leaves only
	}
	switch kind {
	case 0:
		rows, cols := r.Intn(4), r.Intn(4)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return m
	case 1:
		rows, cols := r.Intn(3), r.Intn(3)
		m := &BMat{Rows: rows, Cols: cols, Data: make([]bool, rows*cols)}
		for i := range m.Data {
			m.Data[i] = r.Intn(2) == 1
		}
		return m
	case 2:
		rows, cols := r.Intn(3), r.Intn(3)
		m := NewSMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = string(rune('a' + r.Intn(26)))
		}
		return m
	case 3:
		n := r.Intn(4)
		l := NewList()
		for i := 0; i < n; i++ {
			l.Add(genObject(r, depth-1))
		}
		return l
	case 4:
		n := r.Intn(4)
		h := NewHash()
		for i := 0; i < n; i++ {
			h.Set(string(rune('A'+i)), genObject(r, depth-1))
		}
		return h
	default:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return &Serial{Data: b, Compressed: false}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genObject(r, 4))
		},
	}
	f := func(o Object) bool {
		s, err := Serialize(o)
		if err != nil {
			return false
		}
		back, err := s.Unserialize()
		if err != nil {
			return false
		}
		return back.Equal(o) && o.Equal(back)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompressedRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genObject(r, 3))
		},
	}
	f := func(o Object) bool {
		s, err := Serialize(o)
		if err != nil {
			return false
		}
		c, err := s.Compress()
		if err != nil || !c.Compressed {
			return false
		}
		back, err := c.Unserialize()
		if err != nil {
			return false
		}
		return back.Equal(o)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompressShrinksRedundantData(t *testing.T) {
	// Paper's example: serialize(1:100) is 842 bytes, compressed 248.
	m := NewMat(1, 100)
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	s, err := Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compress()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Data) >= len(s.Data) {
		t.Fatalf("compression did not shrink 1:100: %d -> %d", len(s.Data), len(c.Data))
	}
	raw, err := c.inflated()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, s.Data) {
		t.Fatal("uncompress did not restore original bytes")
	}
}

func TestCompressIdempotent(t *testing.T) {
	s, err := Serialize(Scalar(3))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Compress()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c1.Compress()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("compressing a compressed serial should be a no-op")
	}
}

func TestEqualDistinguishesKinds(t *testing.T) {
	objs := []Object{
		Scalar(1), Bool(true), Str("1"), NewList(Scalar(1)),
		func() Object { h := NewHash(); h.Set("a", Scalar(1)); return h }(),
		&Serial{Data: []byte{1}},
	}
	for i, a := range objs {
		for j, b := range objs {
			if (i == j) != a.Equal(b) {
				t.Errorf("Equal(%v, %v) = %v", a.Kind(), b.Kind(), a.Equal(b))
			}
		}
	}
}

func TestEqualDistinguishesShapes(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(3, 2)
	if a.Equal(b) {
		t.Fatal("2x3 equal to 3x2")
	}
	s1 := NewSMat(1, 2)
	s2 := NewSMat(2, 1)
	if s1.Equal(s2) {
		t.Fatal("string shapes conflated")
	}
}

func TestStringRepresentations(t *testing.T) {
	if got := Scalar(2.5).String(); got != "r (1x1) 2.5" {
		t.Errorf("Mat.String() = %q", got)
	}
	s := &Serial{Data: make([]byte, 302)}
	if got := s.String(); got != "<302-bytes> serial" {
		t.Errorf("Serial.String() = %q", got)
	}
	if KindHash.String() != "h" || Kind(99).String() != "Kind(99)" {
		t.Error("Kind.String mismatch")
	}
}

// point is a Go value that travels as a hash: the WireFormer shape.
type point struct {
	x, y float64
	err  error // what WireForm reports, if set
}

func (p *point) Kind() Kind          { return KindHash }
func (p *point) Equal(o Object) bool { q, ok := o.(*point); return ok && *p == *q }
func (p *point) WireForm() (Object, error) {
	if p.err != nil {
		return nil, p.err
	}
	h := NewHash()
	h.Set("x", Scalar(p.x))
	h.Set("y", Scalar(p.y))
	return h, nil
}

// TestWireFormerEncodesAsItsWireForm: the encode path is where a
// WireFormer becomes native objects — at the top level or nested, the
// stream is byte for byte that of its wire form, it decodes as that
// form, and a WireForm failure fails the encode.
func TestWireFormerEncodesAsItsWireForm(t *testing.T) {
	p := &point{x: 1.5, y: -2}
	native, err := p.WireForm()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]Object{
		"top level": {p, native},
		"nested":    {NewList(Str("a"), p), NewList(Str("a"), native)},
	} {
		got, err := Serialize(pair[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Serialize(pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("%s: a WireFormer's stream differs from its wire form's", name)
		}
		if back := roundTrip(t, pair[0]); !back.Equal(pair[1]) {
			t.Errorf("%s: decoded %v, want the wire form", name, back)
		}
	}
	if _, err := Serialize(NewList(&point{err: ErrBadStream})); err == nil {
		t.Error("a failing WireForm did not fail the encode")
	}
}
