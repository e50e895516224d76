package farm

import (
	"fmt"
	"math"

	"riskbench/internal/nsp"
)

// Everything the farm ships besides the problems themselves — batch
// descriptors, span and event payloads, result hashes — is a column
// bundle: an nsp hash of 1×n columns, one per field, plus a few scalars.
// bundleWriter and bundleReader are the one codec behind all of them and
// the only code that knows the format's conventions:
//
//   - a 64-bit ID travels as its exact high and low 32-bit halves, two
//     floats per ID, because a single float64 cannot hold it;
//   - a repeated string travels once, in an intern table, and each row
//     carries its index into that table;
//   - counts, indices and levels are floats that must be exact integers
//     in a stated range, and clock readings must be finite.

// maxCount bounds the byte and row counts a bundle may declare.
const maxCount = 1<<31 - 1

// whole reports whether v is an exact integer in [lo, hi], so int(v) is
// safe and means what the sender wrote. NaN and ±Inf are not.
func whole(v, lo, hi float64) bool {
	return v == math.Trunc(v) && v >= lo && v <= hi
}

// idColumn holds 64-bit IDs as 32-bit halves, two floats per ID.
type idColumn []float64

func (c idColumn) put(i int, v uint64) {
	c[2*i] = float64(v >> 32)
	c[2*i+1] = float64(uint32(v))
}

func (c idColumn) at(i int) uint64 {
	return uint64(c[2*i])<<32 | uint64(c[2*i+1])
}

// interner builds an intern table. A batch's records repeat a handful of
// strings, so a scan beats a map.
type interner []string

// ix returns s's index in the table, adding s if it is new.
func (t *interner) ix(s string) float64 {
	for i, v := range *t {
		if v == s {
			return float64(i)
		}
	}
	*t = append(*t, s)
	return float64(len(*t) - 1)
}

// bundleWriter fills a bundle. The column methods return the column's
// storage, so encoders write values in place with no staging copies.
type bundleWriter struct{ h *nsp.Hash }

func newBundle() bundleWriter { return bundleWriter{nsp.NewHash()} }

func (w bundleWriter) floats(key string, n int) []float64 {
	m := nsp.NewMat(1, n)
	w.h.Set(key, m)
	return m.Data
}

func (w bundleWriter) strs(key string, n int) []string {
	m := nsp.NewSMat(1, n)
	w.h.Set(key, m)
	return m.Data
}

func (w bundleWriter) ids(key string, n int) idColumn { return idColumn(w.floats(key, 2*n)) }

func (w bundleWriter) table(key string, t interner) { copy(w.strs(key, len(t)), t) }

func (w bundleWriter) scalar(key string, v float64) { w.h.Set(key, nsp.Scalar(v)) }

func (w bundleWriter) str(key, s string) { w.h.Set(key, nsp.Str(s)) }

// bundleReader reads a bundle that may have come off a socket. The first
// violation sticks in err and the read that found it returns nil, so a
// decoder reads all its columns and checks err once before using them.
type bundleReader struct {
	what string // "descriptor", "span payload", …: names the bundle in errors
	h    *nsp.Hash
	err  error
}

func readBundle(o nsp.Object, what string) bundleReader {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return bundleReader{what: what, h: nsp.NewHash(), err: fmt.Errorf("farm: %s is %v, want hash", what, o.Kind())}
	}
	return bundleReader{what: what, h: h}
}

func (r *bundleReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("farm: %s %s", r.what, fmt.Sprintf(format, args...))
	}
}

func (r *bundleReader) has(key string) bool {
	_, ok := r.h.Get(key)
	return ok
}

func (r *bundleReader) get(key string) nsp.Object {
	v, ok := r.h.Get(key)
	if !ok {
		r.fail("is missing %q", key)
	}
	return v
}

// sized passes a column that holds n values (any number when n < 0).
func sized[T any](r *bundleReader, key string, col []T, n int) []T {
	if n >= 0 && len(col) != n {
		r.fail("field %q holds %d values, want %d", key, len(col), n)
		return nil
	}
	return col
}

// floats returns the float column under key.
func (r *bundleReader) floats(key string, n int) []float64 {
	m, ok := r.get(key).(*nsp.Mat)
	if !ok {
		r.fail("field %q is not a float matrix", key)
		return nil
	}
	return sized(r, key, m.Data, n)
}

// strs returns the string column under key.
func (r *bundleReader) strs(key string, n int) []string {
	m, ok := r.get(key).(*nsp.SMat)
	if !ok {
		r.fail("field %q is not a string matrix", key)
		return nil
	}
	return sized(r, key, m.Data, n)
}

// ints returns a float column whose every value is an exact integer in
// [lo, hi]: a count, a level, or — with hi the table's last index — an
// index into an intern table.
func (r *bundleReader) ints(key string, n int, lo, hi float64) []float64 {
	col := r.floats(key, n)
	for i, v := range col {
		if !whole(v, lo, hi) {
			r.fail("field %q[%d] = %v, want an integer in [%v, %v]", key, i, v, lo, hi)
			return nil
		}
	}
	return col
}

// ids returns the column of n 64-bit IDs under key.
func (r *bundleReader) ids(key string, n int) idColumn {
	return idColumn(r.ints(key, 2*n, 0, math.MaxUint32))
}

// times returns a column of n clock readings, all finite: a NaN or
// infinite time would poison every duration computed from it.
func (r *bundleReader) times(key string, n int) []float64 {
	col := r.floats(key, n)
	for i, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("field %q[%d] = %v, want a finite time", key, i, v)
			return nil
		}
	}
	return col
}

// scalar returns the 1×1 float under key.
func (r *bundleReader) scalar(key string) float64 {
	if col := r.floats(key, 1); col != nil {
		return col[0]
	}
	return 0
}

// opt is scalar for a field the sender may leave out, which reads as 0.
func (r *bundleReader) opt(key string) float64 {
	if !r.has(key) {
		return 0
	}
	return r.scalar(key)
}

// str returns the 1×1 string under key.
func (r *bundleReader) str(key string) string {
	if col := r.strs(key, 1); col != nil {
		return col[0]
	}
	return ""
}
