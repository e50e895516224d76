package premia

import (
	"fmt"
	"math"
	"strconv"
)

// Params is a flat name→value table holding every numeric parameter of a
// pricing problem (model, option and method parameters share one
// namespace, as in Premia's flattened parameter lists).
type Params map[string]float64

// Clone returns a deep copy.
func (p Params) Clone() Params {
	q := make(Params, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// Get returns the value for key, or the fallback if absent.
func (p Params) Get(key string, fallback float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return fallback
}

// NeedPositive returns the value for key, requiring it to be > 0 (a NaN
// is not). A missing key is an error naming it, wrapping ErrMissingParam
// for errors.Is.
func (p Params) NeedPositive(key string) (float64, error) {
	v, ok := p[key]
	return positive(key, v, ok)
}

// positive is NeedPositive's rule for a value already looked up, ok
// saying whether the parameter was present at all.
func positive(key string, v float64, ok bool) (float64, error) {
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrMissingParam, key)
	}
	if !(v > 0) {
		return 0, fmt.Errorf("premia: parameter %q must be positive, got %v", key, v)
	}
	return v, nil
}

// Int returns the value for key rounded to the nearest int (halves away
// from zero), or fallback if absent. math.Round, not int(v+0.5): the
// latter truncates toward zero after the shift and mis-rounds negatives
// (-2.4 would become -1).
func (p Params) Int(key string, fallback int) int {
	if v, ok := p[key]; ok {
		return int(math.Round(v))
	}
	return fallback
}

// Uint64 returns the value for key as a uint64, or fallback if absent.
// The conversion truncates any fraction and clamps to [0, 2^64) instead
// of hitting Go's undefined float→uint conversion for out-of-range
// values. Params values are float64, which holds only 53-bit integers
// exactly, so full-width 64-bit values (Monte Carlo seeds) should be
// split across two keys — see Problem.SetSeed.
func (p Params) Uint64(key string, fallback uint64) uint64 {
	v, ok := p[key]
	if !ok {
		return fallback
	}
	switch {
	case math.IsNaN(v) || v <= 0:
		return 0
	case v >= 1<<64:
		return math.MaxUint64
	}
	return uint64(v)
}

// sizeMax is the most each parameter that sizes memory may be. A method
// allocates what these say before it computes anything — a dim × dim
// Cholesky factor, a tree level per step, a row of normals per time step
// in each of the kernel's 64 shards — so without a ceiling one request
// (or one farm frame) naming dim 4000000 ends the process in an
// out-of-memory fault no recover catches. The maxima admit every problem
// the portfolio generators build at full effort (dim 40 at 10^6 streamed
// paths, 1472 PDE steps on 400 nodes, 100 mcsteps) with orders of
// magnitude to spare and keep any one problem's memory under about
// 1 GiB. "paths" is bounded only where it is stored, not streamed: in
// Longstaff–Schwartz, the one method that stores paths, whose memory is a
// product of several of these (see lsmFits); "fixings" so that it stays
// interchangeable with "mcsteps".
var sizeMax = map[string]int{
	"dim":       1 << 10,
	"steps":     1 << 20,
	"nodes":     1 << 20,
	"mcsteps":   1 << 16,
	"fixings":   1 << 16,
	"exdates":   1 << 12,
	"rotations": 1 << 10,
	"degree":    16,
	"paths":     1 << 28,
}

// size is Int for a parameter that sizes memory: one past its sizeMax
// (or a NaN, which can size nothing) is a pricing error like any other.
// Lower bounds stay each method's own; a value below any int32 reads as
// that.
func (p Params) size(key string, fallback int) (int, error) {
	v, ok := p[key]
	if !ok {
		return fallback, nil
	}
	if max := sizeMax[key]; !(v <= float64(max)) {
		return 0, fmt.Errorf("premia: parameter %q = %s exceeds %d", key, strconv.FormatFloat(v, 'f', -1, 64), max)
	}
	return int(math.Round(math.Max(v, math.MinInt32))), nil
}
