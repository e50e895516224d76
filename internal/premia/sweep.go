package premia

import (
	"slices"

	"riskbench/internal/nsp"
)

// Override sets one parameter of a sweep cell.
type Override struct {
	Param string
	Value float64
}

// Sweep is one problem priced under a list of parameter overrides: cell k
// is Base with Cells[k] set on it, in order, so a later override of a
// parameter wins. It is the unit a revaluation farms — one claim under
// its scenarios — and exists to do once per claim what pricing each cell
// as a problem of its own does once per cell: the copy (for a method with
// a sweep form, the reading) of the parameter table, the method lookup,
// the telemetry instruments. Every cell is still its own kernel call, in
// cell order, on exactly the parameters Cell(k) carries; nothing is
// batched or re-ordered, so the results are those of Cell(k).Compute()
// to the bit.
//
// A sweep is an nsp object so that it can be a farm task's payload, but
// it has no wire form: it crosses by reference or not at all, and a farm
// whose communicator carries bytes ships the cells as problems. Neither
// Base nor Cells may be mutated until the round returns; Compute leaves
// both as it found them.
type Sweep struct {
	Base  *Problem
	Cells [][]Override
}

// Kind implements nsp.Object: a sweep is a list of problems.
func (s *Sweep) Kind() nsp.Kind { return nsp.KindList }

// Equal implements nsp.Object: the same cells over an equal base.
func (s *Sweep) Equal(o nsp.Object) bool {
	t, ok := o.(*Sweep)
	return ok && s.Base.Equal(t.Base) && slices.EqualFunc(s.Cells, t.Cells, slices.Equal[[]Override])
}

// Cell returns cell k as a standalone problem, a copy the caller owns.
func (s *Sweep) Cell(k int) *Problem {
	p := s.Base.Clone()
	for _, o := range s.Cells[k] {
		p.Params[o.Param] = o.Value
	}
	return p
}

// Compute prices every cell and returns the results by cell index. errs
// is nil when every cell priced; otherwise errs[k] is cell k's failure
// and results[k] is zero. A failed cell fails alone — the cells after it
// are priced as if it had not — and counts once in "premia.errors", as
// Problem.Compute would have counted it. The triple is validated once.
// A method with a sweep form reads Base once and prices each cell from
// that reading; any other prices the cells on one scratch copy of Base
// that is put back to Base's values after each. The sink's per-method
// metrics are booked once per sweep from two clock readings: every cell
// counts as a compute observed at the sweep's mean time per cell.
func (s *Sweep) Compute() (results []Result, errs []error) {
	results = make([]Result, len(s.Cells))
	fail := func(k int, err error) {
		if errs == nil {
			errs = make([]error, len(s.Cells))
		}
		errs[k] = err
		countError()
	}
	if err := s.Base.Validate(); err != nil {
		for k := range s.Cells {
			fail(k, err)
		}
		return results, errs
	}
	in := instrumentsOf(s.Base.Method)
	start, work := in.reg.Now(), 0.0
	var cell func([]Override) (Result, error)
	if spec := methods[s.Base.Method]; spec.sweep != nil {
		cell = spec.sweep(s.Base.Params)
	} else {
		cell = onScratch(spec.fn, s.Base)
	}
	for k, overrides := range s.Cells {
		res, err := cell(overrides)
		if err != nil {
			fail(k, err)
			continue
		}
		results[k] = res
		work += res.Work
	}
	in.record(start, len(s.Cells), work)
	return results, errs
}

// onScratch is the sweep form of a method without one: fn on a scratch
// copy of base, each cell's overrides set before the call and put back to
// base's values after it.
func onScratch(fn func(*Problem) (Result, error), base *Problem) func([]Override) (Result, error) {
	scratch := base.Clone()
	return func(cell []Override) (Result, error) {
		for _, o := range cell {
			scratch.Params[o.Param] = o.Value
		}
		res, err := fn(scratch)
		for _, o := range cell {
			if v, ok := base.Params[o.Param]; ok {
				scratch.Params[o.Param] = v
			} else {
				delete(scratch.Params, o.Param)
			}
		}
		return res, err
	}
}
