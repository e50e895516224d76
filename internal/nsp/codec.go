package nsp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
	// preallocMax is how much of a declared length decode allocates before
	// the data has arrived; anything longer grows as it is read. A header
	// may claim maxDim elements: a 23-byte stream cost a 2 GiB matrix.
	preallocMax = 1 << 16
	// maxDepth bounds how deep lists, hashes and cells nest. A level costs
	// five bytes of stream and one decoder stack frame, so unbounded, a
	// 10 MB frame of nested one-element lists overflows the goroutine
	// stack, which no recover catches. The farm's deepest message nests
	// four levels; 64 leaves room for anything a script builds by hand.
	maxDepth = 64
)

// ErrBadStream is wrapped by all decode errors caused by malformed input.
var ErrBadStream = errors.New("nsp: malformed stream")

func badStream(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadStream, fmt.Sprintf(format, args...))
}

// encoder writes one stream. Write errors are the bufio.Writer's to keep
// (it refuses every write after the first failure and Flush reports it),
// so no write below checks one; err holds what the writer cannot know: a
// nil or foreign object, a WireForm that failed.
type encoder struct {
	w   *bufio.Writer
	err error
	buf [8]byte // integer staging; on the encoder so it never escapes per call
}

// encodeStream writes the full framed stream (magic + version + object).
func encodeStream(w io.Writer, o Object) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.w.WriteString(codecMagic)
	binary.BigEndian.PutUint16(e.buf[:2], codecVersion)
	e.w.Write(e.buf[:2])
	e.object(o)
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *encoder) flag(v bool) {
	if v {
		e.w.WriteByte(1)
	} else {
		e.w.WriteByte(0)
	}
}

func (e *encoder) u32(v uint32) {
	binary.BigEndian.PutUint32(e.buf[:4], v)
	e.w.Write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.BigEndian.PutUint64(e.buf[:], v)
	e.w.Write(e.buf[:])
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.w.WriteString(s)
}

func (e *encoder) dims(rows, cols int) {
	e.u32(uint32(rows))
	e.u32(uint32(cols))
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
	e.w.WriteByte(byte(o.Kind()))
	switch v := o.(type) {
	case *Mat:
		e.dims(v.Rows, v.Cols)
		for _, x := range v.Data {
			e.u64(math.Float64bits(x))
		}
	case *BMat:
		e.dims(v.Rows, v.Cols)
		for _, x := range v.Data {
			e.flag(x)
		}
	case *SMat:
		e.dims(v.Rows, v.Cols)
		for _, s := range v.Data {
			e.str(s)
		}
	case *IMat:
		e.dims(v.Rows, v.Cols)
		for _, x := range v.Data {
			e.u64(uint64(x))
		}
	case *Cells:
		e.dims(v.Rows, v.Cols)
		for _, item := range v.Data {
			e.flag(item != nil)
			if item != nil {
				e.object(item)
			}
		}
	case *SpMat:
		e.dims(v.Rows, v.Cols)
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
		e.w.Write(v.Data)
	default:
		e.err = fmt.Errorf("nsp: cannot encode object of kind %v", o.Kind())
	}
}

// decoder reads one stream. The first failure sticks in err: from then on
// nothing is read, counts come back 0 and every loop stops, so the kinds
// below read straight through (what they build after a failure is dropped)
// and the stream is judged once, in decodeStream.
type decoder struct {
	r     *bufio.Reader
	err   error
	depth int
	buf   [8]byte // integer staging, as in encoder
}

// decodeStream reads a full framed stream.
func decodeStream(r io.Reader) (Object, error) {
	d := &decoder{r: bufio.NewReader(r)}
	d.read(d.buf[:6])
	if magic := d.buf[:4]; string(magic) != codecMagic {
		d.fail("bad magic %q", magic)
	}
	if version := binary.BigEndian.Uint16(d.buf[4:6]); version != codecVersion {
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

func (d *decoder) read(b []byte) {
	if d.err != nil {
		return
	}
	// Asking the bufio.Reader first spares each element io.ReadFull's interface call.
	if n, _ := d.r.Read(b); n < len(b) {
		if _, err := io.ReadFull(d.r, b[n:]); err != nil {
			d.fail("short stream: %v", err)
		}
	}
}

func (d *decoder) u8() byte {
	d.read(d.buf[:1])
	return d.buf[0]
}

func (d *decoder) u32() uint32 {
	d.read(d.buf[:4])
	return binary.BigEndian.Uint32(d.buf[:4])
}

func (d *decoder) u64() uint64 {
	d.read(d.buf[:])
	return binary.BigEndian.Uint64(d.buf[:])
}

// count reads an element or byte count, at most maxDim; 0 once failed, so
// no loop runs on a count the stream never held.
func (d *decoder) count(what string) int {
	n := d.u32()
	if n > maxDim {
		d.fail("%s too large: %d", what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// bytes reads exactly n bytes; past preallocMax the buffer doubles as the
// bytes arrive. (A plain make+ReadFull for the common short string:
// routing those through a bytes.Buffer made unserialize 3.4× slower.)
func (d *decoder) bytes(n int) []byte {
	b := make([]byte, min(n, preallocMax))
	d.read(b)
	for len(b) < n && d.err == nil {
		more := min(n-len(b), len(b))
		b = append(b, make([]byte, more)...)
		d.read(b[len(b)-more:])
	}
	return b
}

func (d *decoder) str() string { return string(d.bytes(d.count("string"))) }

// dims reads a matrix header and returns its element count.
func (d *decoder) dims() (rows, cols, n int) {
	rows, cols = d.count("matrix rows"), d.count("matrix cols")
	if uint64(rows)*uint64(cols) > maxDim {
		d.fail("matrix dims %dx%d too large", rows, cols)
		return 0, 0, 0
	}
	return rows, cols, rows * cols
}

// dense reads n elements, allocating as they arrive.
func dense[T any](d *decoder, n int, elem func() T) []T {
	out := make([]T, 0, min(n, preallocMax))
	for len(out) < n && d.err == nil {
		out = append(out, elem())
	}
	return out
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) flag() bool   { return d.u8() != 0 }

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
		rows, cols, n := d.dims()
		return &Mat{Rows: rows, Cols: cols, Data: dense(d, n, d.f64)}
	case KindBMat:
		rows, cols, n := d.dims()
		return &BMat{Rows: rows, Cols: cols, Data: dense(d, n, d.flag)}
	case KindSMat:
		rows, cols, n := d.dims()
		return &SMat{Rows: rows, Cols: cols, Data: dense(d, n, d.str)}
	case KindIMat:
		rows, cols, n := d.dims()
		return &IMat{Rows: rows, Cols: cols, Data: dense(d, n, d.i64)}
	case KindCells:
		rows, cols, n := d.dims()
		return &Cells{Rows: rows, Cols: cols, Data: dense(d, n, d.cell)}
	case KindList:
		return &List{Items: dense(d, d.count("list"), d.object)}
	case KindHash:
		h := NewHash()
		for n := d.count("hash"); n > 0 && d.err == nil; n-- {
			h.m[d.str()] = d.object() // calls run left to right: key, then value
		}
		return h
	case KindSerial:
		return &Serial{Compressed: d.flag(), Data: d.bytes(d.count("serial"))}
	case KindSpMat:
		rows, cols, _ := d.dims()
		nnz := d.count("sparse nnz")
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
