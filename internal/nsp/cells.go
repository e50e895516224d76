package nsp

import "slices"

// Additional object kinds: integer matrices and cells ("non sparse
// matrices, cells, lists and hash tables" is the paper's list of types
// MPI_Send handles directly).
const (
	// KindIMat is a dense integer matrix.
	KindIMat Kind = 7
	// KindCells is a two-dimensional array of arbitrary objects.
	KindCells Kind = 8
)

// IMat is a dense int64 matrix stored row-major.
type IMat struct {
	Rows, Cols int
	Data       []int64
}

// NewIMat returns a zero-filled rows×cols integer matrix.
func NewIMat(rows, cols int) *IMat {
	if rows < 0 || cols < 0 {
		panic("nsp: negative matrix dimension")
	}
	return &IMat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
}

// IntScalar returns a 1×1 integer matrix holding v.
func IntScalar(v int64) *IMat {
	return &IMat{Rows: 1, Cols: 1, Data: []int64{v}}
}

// Kind implements Object.
func (m *IMat) Kind() Kind { return KindIMat }

// At returns the element at row i, column j.
func (m *IMat) At(i, j int) int64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *IMat) Set(i, j int, v int64) { m.Data[i*m.Cols+j] = v }

// Equal implements Object.
func (m *IMat) Equal(o Object) bool {
	n, ok := o.(*IMat)
	return ok && m.Rows == n.Rows && m.Cols == n.Cols && slices.Equal(m.Data, n.Data)
}

// Cells is a rows×cols array of objects; entries may be nil (empty cell).
type Cells struct {
	Rows, Cols int
	Data       []Object
}

// NewCells returns an empty-celled rows×cols array.
func NewCells(rows, cols int) *Cells {
	if rows < 0 || cols < 0 {
		panic("nsp: negative cells dimension")
	}
	return &Cells{Rows: rows, Cols: cols, Data: make([]Object, rows*cols)}
}

// Kind implements Object.
func (c *Cells) Kind() Kind { return KindCells }

// At returns the object at row i, column j (nil if empty).
func (c *Cells) At(i, j int) Object { return c.Data[i*c.Cols+j] }

// Set assigns the object at row i, column j.
func (c *Cells) Set(i, j int, o Object) { c.Data[i*c.Cols+j] = o }

// Equal implements Object.
func (c *Cells) Equal(o Object) bool {
	d, ok := o.(*Cells)
	if !ok || c.Rows != d.Rows || c.Cols != d.Cols {
		return false
	}
	for i, v := range c.Data {
		w := d.Data[i]
		if (v == nil) != (w == nil) {
			return false
		}
		if v != nil && !v.Equal(w) {
			return false
		}
	}
	return true
}
