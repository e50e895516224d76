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
// a sweep form of its own, the reading) of the parameter table, the
// method lookup, the telemetry instruments — and, for the Monte Carlo
// methods with a block form (MC_Basket, MC_LocalVol, the LSM basket),
// the paths: cells that draw the same normals are priced by one kernel
// run that draws each path once and evolves it under every cell. Each
// cell still sees exactly the operations, in the same order, that its
// own kernel call on the parameters Cell(k) carries would, so the
// results are those of Cell(k).Compute() to the bit.
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
// Problem.Compute would have counted it. The triple is validated once,
// and the method's sweep form (methodSpec.sweep) prices the cells in one
// call. The sink's per-method metrics are booked once per sweep from two
// clock readings: every cell counts as a compute observed at the sweep's
// mean time per cell.
func (s *Sweep) Compute() (results []Result, errs []error) {
	if err := s.Base.Validate(); err != nil {
		errs = make([]error, len(s.Cells))
		for k := range s.Cells {
			errs[k] = err
			countError()
		}
		return make([]Result, len(s.Cells)), errs
	}
	in := instrumentsOf(s.Base.Method)
	start := in.reg.Now()
	results, errs = methods[s.Base.Method].sweep(s.Base, s.Cells)
	work := 0.0
	for k, res := range results {
		if errs != nil && errs[k] != nil {
			countError()
			continue
		}
		work += res.Work
	}
	in.record(start, len(s.Cells), work)
	return results, errs
}

// cellFailed records cell k's failure in errs, a slice of n errors
// allocated on the first failure, and returns it.
func cellFailed(errs []error, n, k int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[k] = err
	return errs
}

// eachCell calls f on every cell in order, on one scratch copy of base
// with the cell's overrides set before the call and put back to base's
// values after it, and returns f's failures by cell (nil if none).
func eachCell(base *Problem, cells [][]Override, f func(k int, p *Problem) error) (errs []error) {
	scratch := base.Clone()
	for k, cell := range cells {
		for _, o := range cell {
			scratch.Params[o.Param] = o.Value
		}
		if err := f(k, scratch); err != nil {
			errs = cellFailed(errs, len(cells), k, err)
		}
		for _, o := range cell {
			if v, ok := base.Params[o.Param]; ok {
				scratch.Params[o.Param] = v
			} else {
				delete(scratch.Params, o.Param)
			}
		}
	}
	return errs
}

// onScratch is the sweep form of a method without one of its own: fn on
// each cell in turn (eachCell).
func onScratch(fn func(*Problem) (Result, error)) func(*Problem, [][]Override) ([]Result, []error) {
	return func(base *Problem, cells [][]Override) ([]Result, []error) {
		results := make([]Result, len(cells))
		errs := eachCell(base, cells, func(k int, p *Problem) error {
			res, err := fn(p)
			if err == nil {
				results[k] = res
			}
			return err
		})
		return results, errs
	}
}

// drawKey is everything that shapes a Monte Carlo run's draws: the seed
// its shard streams split from, the path count that sizes the shards, and
// how many normals a path takes and how they are correlated (assets,
// dates or steps, correlation bits). Two cells with equal keys draw the
// same normals in the same order.
type drawKey struct {
	seed              uint64
	paths, dim, dates int
	rho               uint64
}

// mcCell is one cell of a Monte Carlo method with a block form, parsed
// and validated.
type mcCell interface {
	draws() drawKey
}

// blockSweep is the sweep form of a Monte Carlo method priced a block at
// a time. Every cell is parsed by parse — the code the lone method runs
// first, so a cell fails alone with the lone error — and the cells that
// parsed are grouped by their draws, in order of first appearance: each
// group is one call of price, which draws the group's paths once and
// returns each cell's result (or failure) as the lone method would.
// The lone method is price on a group of one (priceAlone).
func blockSweep[C mcCell](parse func(*Problem) (C, error), price func([]C) ([]Result, []error)) func(*Problem, [][]Override) ([]Result, []error) {
	return func(base *Problem, cells [][]Override) ([]Result, []error) {
		results := make([]Result, len(cells))
		parsed := make([]C, len(cells))
		pending := make([]int, 0, len(cells))
		errs := eachCell(base, cells, func(k int, p *Problem) (err error) {
			if parsed[k], err = parse(p); err == nil {
				pending = append(pending, k)
			}
			return err
		})
		group, at := make([]C, 0, len(pending)), make([]int, 0, len(pending))
		for len(pending) > 0 {
			key, rest := parsed[pending[0]].draws(), pending[:0]
			group, at = group[:0], at[:0]
			for _, k := range pending {
				if parsed[k].draws() == key {
					group, at = append(group, parsed[k]), append(at, k)
				} else {
					rest = append(rest, k)
				}
			}
			res, failed := price(group)
			for j, k := range at {
				if failed != nil && failed[j] != nil {
					errs = cellFailed(errs, len(cells), k, failed[j])
					continue
				}
				results[k] = res[j]
			}
			pending = rest
		}
		return results, errs
	}
}

// priceAlone is a block-form method on one problem.
func priceAlone[C mcCell](p *Problem, parse func(*Problem) (C, error), price func([]C) ([]Result, []error)) (Result, error) {
	c, err := parse(p)
	if err != nil {
		return Result{}, err
	}
	res, errs := price([]C{c})
	if errs != nil && errs[0] != nil {
		return Result{}, errs[0]
	}
	return res[0], nil
}
