package nsp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind identifies the dynamic type of an Object, mirroring Nsp's internal
// class tags.
type Kind uint8

// The object kinds supported by this implementation.
const (
	KindMat    Kind = 1 // real (float64) matrix
	KindBMat   Kind = 2 // boolean matrix
	KindSMat   Kind = 3 // string matrix
	KindList   Kind = 4 // heterogeneous ordered list
	KindHash   Kind = 5 // string-keyed hash table
	KindSerial Kind = 6 // opaque serialized buffer
)

// String returns the Nsp-style one-letter class name.
func (k Kind) String() string {
	switch k {
	case KindMat:
		return "r"
	case KindBMat:
		return "b"
	case KindSMat:
		return "s"
	case KindList:
		return "l"
	case KindHash:
		return "h"
	case KindSerial:
		return "serial"
	case KindIMat:
		return "i"
	case KindCells:
		return "ce"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Object is the interface satisfied by every Nsp value. Objects are
// comparable with deep Equal and serializable through Serialize.
type Object interface {
	// Kind reports the dynamic type tag.
	Kind() Kind
	// Equal reports deep structural equality with another object.
	Equal(Object) bool
}

// WireFormer is an Object that lives in memory as a Go value of its own
// and knows the native object it travels as. The codec's encode path
// (Serialize, Save, and through them every wire send) is the one place
// that asks for the wire form, so a value handed between ranks of one
// address space crosses as itself and pays for the format only where
// bytes are needed. A WireFormer reports the Kind of its wire form and
// decodes as that form: the stream does not remember what built it.
type WireFormer interface {
	Object
	// WireForm builds the native object the stream carries.
	WireForm() (Object, error)
}

// WireEqual is the Equal of a WireFormer: w equals whatever travels as
// the same object, be it a native object or another WireFormer.
func WireEqual(w WireFormer, o Object) bool {
	if other, ok := o.(WireFormer); ok {
		var err error
		if o, err = other.WireForm(); err != nil {
			return false
		}
	}
	native, err := w.WireForm()
	return err == nil && native.Equal(o)
}

// Mat is a dense real matrix stored row-major. A 1×1 Mat doubles as a
// scalar, as in Nsp.
type Mat struct {
	Rows, Cols int
	Data       []float64 // length Rows*Cols, row-major
}

// NewMat returns a zero-filled rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("nsp: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Scalar returns a 1×1 matrix holding v.
func Scalar(v float64) *Mat {
	return &Mat{Rows: 1, Cols: 1, Data: []float64{v}}
}

// RowVec returns a 1×n matrix holding a copy of vs.
func RowVec(vs ...float64) *Mat {
	d := make([]float64, len(vs))
	copy(d, vs)
	return &Mat{Rows: 1, Cols: len(vs), Data: d}
}

// Kind implements Object.
func (m *Mat) Kind() Kind { return KindMat }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// ScalarValue returns the single element of a 1×1 matrix and panics
// otherwise.
func (m *Mat) ScalarValue() float64 {
	if m.Rows != 1 || m.Cols != 1 {
		panic(fmt.Sprintf("nsp: ScalarValue on %dx%d matrix", m.Rows, m.Cols))
	}
	return m.Data[0]
}

// Equal implements Object.
func (m *Mat) Equal(o Object) bool {
	n, ok := o.(*Mat)
	return ok && m.Rows == n.Rows && m.Cols == n.Cols && slices.Equal(m.Data, n.Data)
}

// String renders the matrix in a compact Nsp-flavoured form.
func (m *Mat) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r (%dx%d)", m.Rows, m.Cols)
	if m.Rows == 1 && m.Cols == 1 {
		fmt.Fprintf(&b, " %g", m.Data[0])
	}
	return b.String()
}

// BMat is a dense boolean matrix stored row-major.
type BMat struct {
	Rows, Cols int
	Data       []bool
}

// NewBMat returns a false-filled rows×cols boolean matrix.
func NewBMat(rows, cols int) *BMat {
	if rows < 0 || cols < 0 {
		panic("nsp: negative matrix dimension")
	}
	return &BMat{Rows: rows, Cols: cols, Data: make([]bool, rows*cols)}
}

// Bool returns a 1×1 boolean matrix holding v.
func Bool(v bool) *BMat {
	return &BMat{Rows: 1, Cols: 1, Data: []bool{v}}
}

// Kind implements Object.
func (m *BMat) Kind() Kind { return KindBMat }

// Equal implements Object.
func (m *BMat) Equal(o Object) bool {
	n, ok := o.(*BMat)
	return ok && m.Rows == n.Rows && m.Cols == n.Cols && slices.Equal(m.Data, n.Data)
}

// SMat is a dense string matrix stored row-major. A 1×1 SMat is Nsp's
// plain string.
type SMat struct {
	Rows, Cols int
	Data       []string
}

// Str returns a 1×1 string matrix holding s.
func Str(s string) *SMat {
	return &SMat{Rows: 1, Cols: 1, Data: []string{s}}
}

// NewSMat returns an empty-string-filled rows×cols string matrix.
func NewSMat(rows, cols int) *SMat {
	if rows < 0 || cols < 0 {
		panic("nsp: negative matrix dimension")
	}
	return &SMat{Rows: rows, Cols: cols, Data: make([]string, rows*cols)}
}

// Kind implements Object.
func (m *SMat) Kind() Kind { return KindSMat }

// StrValue returns the single element of a 1×1 string matrix and panics
// otherwise.
func (m *SMat) StrValue() string {
	if m.Rows != 1 || m.Cols != 1 {
		panic(fmt.Sprintf("nsp: StrValue on %dx%d string matrix", m.Rows, m.Cols))
	}
	return m.Data[0]
}

// Equal implements Object.
func (m *SMat) Equal(o Object) bool {
	n, ok := o.(*SMat)
	return ok && m.Rows == n.Rows && m.Cols == n.Cols && slices.Equal(m.Data, n.Data)
}

// List is an ordered heterogeneous sequence of objects.
type List struct {
	Items []Object
}

// NewList returns a list of the given items (which are not copied).
func NewList(items ...Object) *List {
	return &List{Items: items}
}

// Kind implements Object.
func (l *List) Kind() Kind { return KindList }

// Len returns the number of items.
func (l *List) Len() int { return len(l.Items) }

// Add appends an item, mirroring Nsp's add_last.
func (l *List) Add(o Object) { l.Items = append(l.Items, o) }

// Equal implements Object.
func (l *List) Equal(o Object) bool {
	m, ok := o.(*List)
	if !ok || len(l.Items) != len(m.Items) {
		return false
	}
	for i, it := range l.Items {
		if !it.Equal(m.Items[i]) {
			return false
		}
	}
	return true
}

// Hash is a string-keyed table of objects, like Nsp's hash_create values.
type Hash struct {
	m map[string]Object
}

// NewHash returns an empty hash table.
func NewHash() *Hash { return &Hash{m: make(map[string]Object)} }

// Kind implements Object.
func (h *Hash) Kind() Kind { return KindHash }

// Set stores o under key.
func (h *Hash) Set(key string, o Object) {
	if h.m == nil {
		h.m = make(map[string]Object)
	}
	h.m[key] = o
}

// Get returns the object stored under key, with presence flag.
func (h *Hash) Get(key string) (Object, bool) {
	o, ok := h.m[key]
	return o, ok
}

// Del removes the entry stored under key, if any — hash_delete in Nsp.
func (h *Hash) Del(key string) { delete(h.m, key) }

// Len returns the number of entries.
func (h *Hash) Len() int { return len(h.m) }

// Keys returns the keys in sorted order, for deterministic encoding and
// iteration.
func (h *Hash) Keys() []string {
	ks := make([]string, 0, len(h.m))
	for k := range h.m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Equal implements Object.
func (h *Hash) Equal(o Object) bool {
	g, ok := o.(*Hash)
	if !ok || len(h.m) != len(g.m) {
		return false
	}
	for k, v := range h.m {
		w, ok := g.m[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}
