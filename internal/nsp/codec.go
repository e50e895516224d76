package nsp

import (
	"bufio"
	"bytes"
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
	// the data has arrived; anything longer grows as its elements are
	// read. A header is a few bytes and may claim maxDim elements, so
	// allocating the claim let a 23-byte stream cost a 2 GiB matrix.
	preallocMax = 1 << 16
)

func prealloc(n int) int { return min(n, preallocMax) }

// ErrBadStream is wrapped by all decode errors caused by malformed input.
var ErrBadStream = errors.New("nsp: malformed stream")

func badStream(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadStream, fmt.Sprintf(format, args...))
}

// encodeStream writes the full framed stream (magic + version + object).
func encodeStream(w io.Writer, o Object) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint16(codecVersion)); err != nil {
		return err
	}
	if err := encodeObject(bw, o); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeStream reads a full framed stream.
func decodeStream(r io.Reader) (Object, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, badStream("short magic: %v", err)
	}
	if string(magic[:]) != codecMagic {
		return nil, badStream("bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.BigEndian, &version); err != nil {
		return nil, badStream("short version: %v", err)
	}
	if version != codecVersion {
		return nil, badStream("unsupported version %d", version)
	}
	return decodeObject(br)
}

func encodeObject(w *bufio.Writer, o Object) error {
	if o == nil {
		return errors.New("nsp: cannot encode nil object")
	}
	if wf, ok := o.(WireFormer); ok {
		native, err := wf.WireForm()
		if err != nil {
			return err
		}
		return encodeObject(w, native)
	}
	if err := w.WriteByte(byte(o.Kind())); err != nil {
		return err
	}
	switch v := o.(type) {
	case *Mat:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		var b [8]byte
		for _, x := range v.Data {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
	case *BMat:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		for _, x := range v.Data {
			b := byte(0)
			if x {
				b = 1
			}
			if err := w.WriteByte(b); err != nil {
				return err
			}
		}
	case *SMat:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		for _, s := range v.Data {
			if err := writeString(w, s); err != nil {
				return err
			}
		}
	case *List:
		if err := writeU32(w, uint32(len(v.Items))); err != nil {
			return err
		}
		for _, it := range v.Items {
			if err := encodeObject(w, it); err != nil {
				return err
			}
		}
	case *Hash:
		if err := writeU32(w, uint32(v.Len())); err != nil {
			return err
		}
		for _, k := range v.Keys() {
			if err := writeString(w, k); err != nil {
				return err
			}
			item, _ := v.Get(k)
			if err := encodeObject(w, item); err != nil {
				return err
			}
		}
	case *Serial:
		b := byte(0)
		if v.Compressed {
			b = 1
		}
		if err := w.WriteByte(b); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(v.Data))); err != nil {
			return err
		}
		if _, err := w.Write(v.Data); err != nil {
			return err
		}
	case *IMat:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		var b [8]byte
		for _, x := range v.Data {
			binary.BigEndian.PutUint64(b[:], uint64(x))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
	case *Cells:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		for _, item := range v.Data {
			if item == nil {
				if err := w.WriteByte(0); err != nil {
					return err
				}
				continue
			}
			if err := w.WriteByte(1); err != nil {
				return err
			}
			if err := encodeObject(w, item); err != nil {
				return err
			}
		}
	case *SpMat:
		if err := writeDims(w, v.Rows, v.Cols); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(v.Val))); err != nil {
			return err
		}
		var b [8]byte
		for k := range v.Val {
			binary.BigEndian.PutUint32(b[:4], uint32(v.RowIdx[k]))
			if _, err := w.Write(b[:4]); err != nil {
				return err
			}
			binary.BigEndian.PutUint32(b[:4], uint32(v.ColIdx[k]))
			if _, err := w.Write(b[:4]); err != nil {
				return err
			}
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Val[k]))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("nsp: cannot encode object of kind %v", o.Kind())
	}
	return nil
}

func decodeObject(r *bufio.Reader) (Object, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return nil, badStream("missing kind byte: %v", err)
	}
	switch Kind(kb) {
	case KindMat:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		n := rows * cols
		m := &Mat{Rows: rows, Cols: cols, Data: make([]float64, 0, prealloc(n))}
		var b [8]byte
		for len(m.Data) < n {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, badStream("short matrix data: %v", err)
			}
			m.Data = append(m.Data, math.Float64frombits(binary.BigEndian.Uint64(b[:])))
		}
		return m, nil
	case KindBMat:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		n := rows * cols
		m := &BMat{Rows: rows, Cols: cols, Data: make([]bool, 0, prealloc(n))}
		for len(m.Data) < n {
			b, err := r.ReadByte()
			if err != nil {
				return nil, badStream("short bool data: %v", err)
			}
			m.Data = append(m.Data, b != 0)
		}
		return m, nil
	case KindSMat:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		n := rows * cols
		m := &SMat{Rows: rows, Cols: cols, Data: make([]string, 0, prealloc(n))}
		for len(m.Data) < n {
			s, err := readString(r)
			if err != nil {
				return nil, err
			}
			m.Data = append(m.Data, s)
		}
		return m, nil
	case KindList:
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxDim {
			return nil, badStream("list too large: %d", n)
		}
		l := &List{Items: make([]Object, 0, prealloc(int(n)))}
		for i := uint32(0); i < n; i++ {
			it, err := decodeObject(r)
			if err != nil {
				return nil, err
			}
			l.Items = append(l.Items, it)
		}
		return l, nil
	case KindHash:
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxDim {
			return nil, badStream("hash too large: %d", n)
		}
		h := NewHash()
		for i := uint32(0); i < n; i++ {
			k, err := readString(r)
			if err != nil {
				return nil, err
			}
			v, err := decodeObject(r)
			if err != nil {
				return nil, err
			}
			h.Set(k, v)
		}
		return h, nil
	case KindSerial:
		cb, err := r.ReadByte()
		if err != nil {
			return nil, badStream("short serial flag: %v", err)
		}
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxDim {
			return nil, badStream("serial too large: %d", n)
		}
		data, err := readBytes(r, int(n))
		if err != nil {
			return nil, badStream("short serial data: %v", err)
		}
		return &Serial{Compressed: cb != 0, Data: data}, nil
	case KindIMat:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		n := rows * cols
		m := &IMat{Rows: rows, Cols: cols, Data: make([]int64, 0, prealloc(n))}
		var b [8]byte
		for len(m.Data) < n {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, badStream("short int matrix data: %v", err)
			}
			m.Data = append(m.Data, int64(binary.BigEndian.Uint64(b[:])))
		}
		return m, nil
	case KindCells:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		n := rows * cols
		c := &Cells{Rows: rows, Cols: cols, Data: make([]Object, 0, prealloc(n))}
		for len(c.Data) < n {
			present, err := r.ReadByte()
			if err != nil {
				return nil, badStream("short cells data: %v", err)
			}
			var item Object
			if present != 0 {
				if item, err = decodeObject(r); err != nil {
					return nil, err
				}
			}
			c.Data = append(c.Data, item)
		}
		return c, nil
	case KindSpMat:
		rows, cols, err := readDims(r)
		if err != nil {
			return nil, err
		}
		nnz, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if nnz > maxDim || uint64(nnz) > uint64(rows)*uint64(cols) {
			return nil, badStream("sparse nnz %d too large for %dx%d", nnz, rows, cols)
		}
		pre := prealloc(int(nnz))
		s := &SpMat{
			Rows: rows, Cols: cols,
			RowIdx: make([]int32, 0, pre), ColIdx: make([]int32, 0, pre), Val: make([]float64, 0, pre),
		}
		var b [8]byte
		for k := uint32(0); k < nnz; k++ {
			if _, err := io.ReadFull(r, b[:4]); err != nil {
				return nil, badStream("short sparse row: %v", err)
			}
			row := int32(binary.BigEndian.Uint32(b[:4]))
			if _, err := io.ReadFull(r, b[:4]); err != nil {
				return nil, badStream("short sparse col: %v", err)
			}
			col := int32(binary.BigEndian.Uint32(b[:4]))
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, badStream("short sparse val: %v", err)
			}
			if int(row) >= rows || int(col) >= cols || row < 0 || col < 0 {
				return nil, badStream("sparse index (%d,%d) outside %dx%d", row, col, rows, cols)
			}
			s.RowIdx = append(s.RowIdx, row)
			s.ColIdx = append(s.ColIdx, col)
			s.Val = append(s.Val, math.Float64frombits(binary.BigEndian.Uint64(b[:])))
		}
		return s, nil
	default:
		return nil, badStream("unknown kind %d", kb)
	}
}

func writeDims(w *bufio.Writer, rows, cols int) error {
	if err := writeU32(w, uint32(rows)); err != nil {
		return err
	}
	return writeU32(w, uint32(cols))
}

func readDims(r *bufio.Reader) (rows, cols int, err error) {
	ur, err := readU32(r)
	if err != nil {
		return 0, 0, err
	}
	uc, err := readU32(r)
	if err != nil {
		return 0, 0, err
	}
	if ur > maxDim || uc > maxDim || uint64(ur)*uint64(uc) > maxDim {
		return 0, 0, badStream("matrix dims %dx%d too large", ur, uc)
	}
	return int(ur), int(uc), nil
}

func writeU32(w *bufio.Writer, v uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, badStream("short u32: %v", err)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxDim {
		return "", badStream("string too large: %d", n)
	}
	b, err := readBytes(r, int(n))
	if err != nil {
		return "", badStream("short string: %v", err)
	}
	return string(b), nil
}

// readBytes reads exactly n bytes; past preallocMax the buffer grows as
// the bytes arrive.
func readBytes(r *bufio.Reader, n int) ([]byte, error) {
	if n <= preallocMax {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
