package farm

import (
	"slices"
	"strconv"

	"riskbench/internal/premia"
)

// cellRef places one dealt task of a round whose sweeps were dealt as
// cells: cell k of the round's task `task`, a sweep, or that task itself
// (k = -1).
type cellRef struct{ task, k int }

// sweepCells is what such a round keeps until it ends: where each dealt
// task's result goes, and the round's results in task order, each
// sweep's a *PricedBlock the cells' answers are read into.
type sweepCells struct {
	refs    []cellRef
	results []Result
}

func isSweep(t Task) bool {
	_, ok := t.Obj.(*premia.Sweep)
	return ok
}

// expandSweeps is the bytes side of the farm's by-reference seam for a
// round that holds sweeps: a *premia.Sweep has no wire form, so each is
// dealt as its cells — Cell(k), the standalone problem, as an ordinary
// task named "<sweep>#<k>" — in the message its sweep was in, and what
// crosses the wire is what crosses it for any other problem. cells is nil,
// and batches unchanged, when there is no sweep to expand.
func expandSweeps(batches [][]Task) (out [][]Task, cells *sweepCells) {
	if !slices.ContainsFunc(batches, func(b []Task) bool { return slices.ContainsFunc(b, isSweep) }) {
		return batches, nil
	}
	cells = &sweepCells{}
	for _, b := range batches {
		var dealt []Task
		for _, t := range b {
			i := len(cells.results)
			sw, ok := t.Obj.(*premia.Sweep)
			if !ok {
				cells.refs = append(cells.refs, cellRef{task: i, k: -1})
				cells.results = append(cells.results, Result{})
				dealt = append(dealt, t)
				continue
			}
			block := &PricedBlock{Name: t.Name, Results: make([]premia.Result, len(sw.Cells))}
			for k := range sw.Cells {
				cells.refs = append(cells.refs, cellRef{task: i, k: k})
				dealt = append(dealt, Task{Name: t.Name + "#" + strconv.Itoa(k), Obj: sw.Cell(k)})
			}
			cells.results = append(cells.results, Result{Name: t.Name, Value: block})
		}
		if len(dealt) > 0 { // an empty batch is the stop message
			out = append(out, dealt)
		}
	}
	return out, cells
}

// fold reads the dealt tasks' results, in dealt order, into the round's
// results and returns those, in task order: an ordinary task's as it is,
// a sweep's block at the sweep's index. A cell that failed is its
// block's Errs[k]; a block's Seconds is the sum over its cells, and its
// Worker the rank its cells' message went to.
func (sc *sweepCells) fold(dealt []Result) ([]Result, error) {
	for j, r := range dealt {
		ref := sc.refs[j]
		if ref.k < 0 {
			sc.results[ref.task] = r
			continue
		}
		p, err := AsPriced(r)
		if err != nil {
			return nil, err
		}
		sc.results[ref.task].Worker = r.Worker
		b := sc.results[ref.task].Value.(*PricedBlock)
		b.Seconds += p.Seconds
		if r.Err == nil {
			b.Results[ref.k] = p.Result
			continue
		}
		if b.Errs == nil {
			b.Errs = make([]error, len(b.Results))
		}
		b.Errs[ref.k] = r.Err
	}
	return sc.results, nil
}
