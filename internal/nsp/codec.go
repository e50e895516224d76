package nsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary stream format (all integers big-endian):
//
//	stream  := magic version object
//	magic   := "NSPB" (4 bytes)
//	version := uint16
//	object  := kind(uint8) payload
//
//	Mat     payload := rows(uint32) cols(uint32) rows*cols × float64
//	BMat    payload := rows(uint32) cols(uint32) rows*cols × uint8
//	SMat    payload := rows(uint32) cols(uint32) rows*cols × string
//	IMat    payload := rows(uint32) cols(uint32) rows*cols × int64
//	Cells   payload := rows(uint32) cols(uint32) rows*cols × (0 | 1 object)
//	SpMat   payload := rows(uint32) cols(uint32) nnz(uint32) nnz × (row(uint32) col(uint32) float64)
//	List    payload := n(uint32) n × object (without magic/version)
//	Hash    payload := n(uint32) n × (string object), keys sorted
//	Serial  payload := compressed(uint8) len(uint32) bytes
//	string  := len(uint32) bytes
const (
	codecMagic   = "NSPB"
	codecVersion = 1
	// maxDim guards decode against hostile or corrupt headers.
	maxDim = 1 << 28
	// maxSlots is how many slots dense allocates before their elements have
	// been read. A declared length is checked against the bytes the stream
	// has left, but a nil cell is one byte of stream and a sixteen-byte
	// slot, so lists, cells and string matrices past it grow as they fill.
	maxSlots = 1 << 16
	// maxDepth bounds how deep lists, hashes and cells nest. A level costs
	// five bytes of stream and one decoder stack frame, so unbounded, a
	// 10 MB frame of nested one-element lists overflows the goroutine
	// stack, which no recover catches. The farm's deepest message nests
	// four levels; 64 leaves room for anything a script builds by hand.
	maxDepth = 64
	// minObject is the shortest encoded object, an empty list: its kind
	// and a zero count.
	minObject = 5
)

// ErrBadStream is wrapped by all decode errors caused by malformed input.
var ErrBadStream = errors.New("nsp: malformed stream")

func badStream(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadStream, fmt.Sprintf(format, args...))
}

// encoder appends one stream to b. err holds the only failures there are:
// a nil or foreign object, a WireForm that failed.
type encoder struct {
	b   []byte
	err error
}

// encodeStream returns the full framed stream (magic + version + object).
func encodeStream(o Object) ([]byte, error) {
	e := encoder{b: make([]byte, 0, 512)}
	e.b = append(e.b, codecMagic...)
	e.b = binary.BigEndian.AppendUint16(e.b, codecVersion)
	e.object(o)
	return e.b, e.err
}

func (e *encoder) flag(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dims writes a matrix header and makes room for the elements that follow.
func (e *encoder) dims(rows, cols, room int) {
	e.u32(uint32(rows))
	e.u32(uint32(cols))
	e.b = slices.Grow(e.b, room)
}

func (e *encoder) object(o Object) {
	if e.err != nil {
		return
	}
	if o == nil {
		e.err = errors.New("nsp: cannot encode nil object")
		return
	}
	if wf, ok := o.(WireFormer); ok {
		if o, e.err = wf.WireForm(); e.err == nil {
			e.object(o)
		}
		return
	}
	e.b = append(e.b, byte(o.Kind()))
	switch v := o.(type) {
	case *Mat:
		e.dims(v.Rows, v.Cols, 8*len(v.Data))
		for _, x := range v.Data {
			e.u64(math.Float64bits(x))
		}
	case *BMat:
		e.dims(v.Rows, v.Cols, len(v.Data))
		for _, x := range v.Data {
			e.flag(x)
		}
	case *SMat:
		e.dims(v.Rows, v.Cols, 4*len(v.Data))
		for _, s := range v.Data {
			e.str(s)
		}
	case *IMat:
		e.dims(v.Rows, v.Cols, 8*len(v.Data))
		for _, x := range v.Data {
			e.u64(uint64(x))
		}
	case *Cells:
		e.dims(v.Rows, v.Cols, len(v.Data))
		for _, item := range v.Data {
			e.flag(item != nil)
			if item != nil {
				e.object(item)
			}
		}
	case *SpMat:
		e.dims(v.Rows, v.Cols, 4+16*len(v.Val))
		e.u32(uint32(len(v.Val)))
		for k := range v.Val {
			e.u32(uint32(v.RowIdx[k]))
			e.u32(uint32(v.ColIdx[k]))
			e.u64(math.Float64bits(v.Val[k]))
		}
	case *List:
		e.u32(uint32(len(v.Items)))
		for _, it := range v.Items {
			e.object(it)
		}
	case *Hash:
		e.u32(uint32(v.Len()))
		for _, k := range v.Keys() {
			e.str(k)
			e.object(v.m[k])
		}
	case *Serial:
		e.flag(v.Compressed)
		e.u32(uint32(len(v.Data)))
		e.b = append(e.b, v.Data...)
	default:
		e.err = fmt.Errorf("nsp: cannot encode object of kind %v", o.Kind())
	}
}

// decoder reads one stream from the bytes left of it. The first failure
// sticks in err: from then on nothing is read, counts come back 0 and
// every loop stops, so the kinds below read straight through (what they
// build after a failure is dropped) and the stream is judged once, in
// decodeStream. Nothing it returns aliases the stream.
type decoder struct {
	data  []byte
	err   error
	depth int
}

// decodeStream decodes a full framed stream.
func decodeStream(data []byte) (Object, error) {
	d := decoder{data: data}
	if magic := d.take(4); string(magic) != codecMagic {
		d.fail("bad magic %q", magic)
	}
	if version := binary.BigEndian.Uint16(d.take(2)); version != codecVersion {
		d.fail("unsupported version %d", version)
	}
	o := d.object()
	if d.err != nil {
		return nil, d.err
	}
	return o, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = badStream(format, args...)
	}
}

// zeros is what a fixed-width read yields from a failed stream.
var zeros [8]byte

// take returns the next n bytes of the stream, uncopied. A stream that
// has failed, or fails here for holding fewer, yields zeros (n of them up
// to the eight an integer needs), so the reads below index what they get.
func (d *decoder) take(n int) []byte {
	if d.err == nil && n > len(d.data) {
		d.fail("short stream: %d bytes wanted, %d left", n, len(d.data))
	}
	if d.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *decoder) u8() byte     { return d.take(1)[0] }
func (d *decoder) u32() uint32  { return binary.BigEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64  { return binary.BigEndian.Uint64(d.take(8)) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) flag() bool   { return d.u8() != 0 }

// claim fails a stream that declares n elements, size bytes each at least,
// and holds fewer: a header cannot claim more than its stream holds, so
// nothing is sized by a count the bytes do not back.
func (d *decoder) claim(what string, n uint64, size int) int {
	if n > maxDim {
		d.fail("%s too large: %d", what, n)
	} else if left := uint64(len(d.data)); n*uint64(size) > left {
		d.fail("%s claims %d elements of %d bytes, %d bytes left", what, n, size, left)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// count reads an element or byte count; 0 once failed, so no loop runs on
// a count the stream never held.
func (d *decoder) count(what string, size int) int { return d.claim(what, uint64(d.u32()), size) }

func (d *decoder) str() string { return string(d.take(d.count("string", 1))) }

// dims reads a matrix header and returns its element count. An empty
// matrix may have one long side, so each is bounded on its own.
func (d *decoder) dims(size int) (rows, cols, n int) {
	rows, cols = d.count("matrix rows", 0), d.count("matrix cols", 0)
	return rows, cols, d.claim("matrix", uint64(rows)*uint64(cols), size)
}

// dense reads n elements into at most maxSlots slots up front.
func dense[T any](d *decoder, n int, elem func() T) []T {
	out := make([]T, 0, min(n, maxSlots))
	for len(out) < n && d.err == nil {
		out = append(out, elem())
	}
	return out
}

// cell reads one Cells entry: a presence byte, then the object if any.
func (d *decoder) cell() Object {
	if !d.flag() {
		return nil
	}
	return d.object()
}

func (d *decoder) object() Object {
	if d.depth++; d.depth > maxDepth {
		d.fail("objects nest deeper than %d", maxDepth)
	}
	defer func() { d.depth-- }()
	kind := d.u8()
	if d.err != nil {
		return nil
	}
	switch Kind(kind) {
	case KindMat:
		rows, cols, n := d.dims(8)
		return &Mat{Rows: rows, Cols: cols, Data: dense(d, n, d.f64)}
	case KindBMat:
		rows, cols, n := d.dims(1)
		return &BMat{Rows: rows, Cols: cols, Data: dense(d, n, d.flag)}
	case KindSMat:
		rows, cols, n := d.dims(4)
		return &SMat{Rows: rows, Cols: cols, Data: dense(d, n, d.str)}
	case KindIMat:
		rows, cols, n := d.dims(8)
		return &IMat{Rows: rows, Cols: cols, Data: dense(d, n, d.i64)}
	case KindCells:
		rows, cols, n := d.dims(1)
		return &Cells{Rows: rows, Cols: cols, Data: dense(d, n, d.cell)}
	case KindList:
		return &List{Items: dense(d, d.count("list", minObject), d.object)}
	case KindHash:
		h := NewHash()
		for n := d.count("hash", 4+minObject); n > 0 && d.err == nil; n-- {
			h.m[d.str()] = d.object() // calls run left to right: key, then value
		}
		return h
	case KindSerial:
		return &Serial{Compressed: d.flag(), Data: slices.Clone(d.take(d.count("serial", 1)))}
	case KindSpMat:
		rows, cols, _ := d.dims(0)
		nnz := d.count("sparse nnz", 16)
		if nnz > rows*cols {
			d.fail("sparse nnz %d too large for %dx%d", nnz, rows, cols)
		}
		s := &SpMat{Rows: rows, Cols: cols}
		for len(s.Val) < nnz && d.err == nil {
			row, col, val := int32(d.u32()), int32(d.u32()), d.f64()
			if row < 0 || col < 0 || int(row) >= rows || int(col) >= cols {
				d.fail("sparse index (%d,%d) outside %dx%d", row, col, rows, cols)
			}
			s.RowIdx, s.ColIdx, s.Val = append(s.RowIdx, row), append(s.ColIdx, col), append(s.Val, val)
		}
		return s
	}
	d.fail("unknown kind %d", kind)
	return nil
}
