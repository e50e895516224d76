package nsp

import "slices"

// KindSpMat is a sparse real matrix in triplet (COO) form — the paper's
// serialization example serializes exactly such an object:
// A=sparse(rand(2,2)); S=serialize(A); MPI_Send_Obj(S,...).
const KindSpMat Kind = 9

// SpMat is a sparse real matrix storing only its non-zero entries as
// parallel row/column/value triplets, kept sorted in row-major order so
// equality and serialization are canonical.
type SpMat struct {
	Rows, Cols int
	// RowIdx, ColIdx and Val are parallel; entry k is (RowIdx[k],
	// ColIdx[k]) = Val[k]. Triplets are sorted row-major and unique.
	RowIdx, ColIdx []int32
	Val            []float64
}

// NewSpMat returns an empty rows×cols sparse matrix.
func NewSpMat(rows, cols int) *SpMat {
	if rows < 0 || cols < 0 {
		panic("nsp: negative matrix dimension")
	}
	return &SpMat{Rows: rows, Cols: cols}
}

// SparseFromDense converts a dense matrix, dropping exact zeros.
func SparseFromDense(m *Mat) *SpMat {
	s := NewSpMat(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 {
				s.RowIdx = append(s.RowIdx, int32(i))
				s.ColIdx = append(s.ColIdx, int32(j))
				s.Val = append(s.Val, v)
			}
		}
	}
	return s
}

// Dense converts back to a dense matrix.
func (s *SpMat) Dense() *Mat {
	m := NewMat(s.Rows, s.Cols)
	for k := range s.Val {
		m.Set(int(s.RowIdx[k]), int(s.ColIdx[k]), s.Val[k])
	}
	return m
}

// NNZ returns the number of stored entries.
func (s *SpMat) NNZ() int { return len(s.Val) }

// At returns the entry at (i, j), zero if absent. Linear scan: the type
// exists for transport fidelity, not linear algebra.
func (s *SpMat) At(i, j int) float64 {
	for k := range s.Val {
		if int(s.RowIdx[k]) == i && int(s.ColIdx[k]) == j {
			return s.Val[k]
		}
	}
	return 0
}

// Set stores v at (i, j), inserting in row-major position; setting an
// existing entry overwrites it (including with zero, which keeps an
// explicit zero — call Compact to drop those).
func (s *SpMat) Set(i, j int, v float64) {
	if i < 0 || i >= s.Rows || j < 0 || j >= s.Cols {
		panic("nsp: sparse index out of range")
	}
	pos := len(s.Val)
	for k := range s.Val {
		if int(s.RowIdx[k]) == i && int(s.ColIdx[k]) == j {
			s.Val[k] = v
			return
		}
		if int(s.RowIdx[k]) > i || (int(s.RowIdx[k]) == i && int(s.ColIdx[k]) > j) {
			pos = k
			break
		}
	}
	s.RowIdx = append(s.RowIdx, 0)
	copy(s.RowIdx[pos+1:], s.RowIdx[pos:])
	s.RowIdx[pos] = int32(i)
	s.ColIdx = append(s.ColIdx, 0)
	copy(s.ColIdx[pos+1:], s.ColIdx[pos:])
	s.ColIdx[pos] = int32(j)
	s.Val = append(s.Val, 0)
	copy(s.Val[pos+1:], s.Val[pos:])
	s.Val[pos] = v
}

// Compact removes explicit zeros.
func (s *SpMat) Compact() {
	out := 0
	for k := range s.Val {
		if s.Val[k] != 0 {
			s.RowIdx[out] = s.RowIdx[k]
			s.ColIdx[out] = s.ColIdx[k]
			s.Val[out] = s.Val[k]
			out++
		}
	}
	s.RowIdx = s.RowIdx[:out]
	s.ColIdx = s.ColIdx[:out]
	s.Val = s.Val[:out]
}

// Kind implements Object.
func (s *SpMat) Kind() Kind { return KindSpMat }

// Equal implements Object (structural equality of the triplet form).
func (s *SpMat) Equal(o Object) bool {
	t, ok := o.(*SpMat)
	return ok && s.Rows == t.Rows && s.Cols == t.Cols &&
		slices.Equal(s.RowIdx, t.RowIdx) && slices.Equal(s.ColIdx, t.ColIdx) && slices.Equal(s.Val, t.Val)
}
