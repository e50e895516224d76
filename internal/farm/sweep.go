package farm

import (
	"fmt"
	"slices"
	"strconv"

	"riskbench/internal/premia"
)

// cellRef places one task of a round whose sweeps were dealt as cells:
// cell k of the round's sweep number `sweep`, or an ordinary task of the
// round (sweep = -1).
type cellRef struct{ sweep, k int }

// sweepCells is what such a round keeps until it ends: every task still
// unanswered by name, and the sweeps' results — each a *PricedBlock the
// cells' answers are read into — in task order.
type sweepCells struct {
	at     map[string]cellRef
	blocks []Result
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
func expandSweeps(batches [][]Task) (out [][]Task, cells *sweepCells, err error) {
	if !slices.ContainsFunc(batches, func(b []Task) bool { return slices.ContainsFunc(b, isSweep) }) {
		return batches, nil, nil
	}
	cells = &sweepCells{at: map[string]cellRef{}}
	tasks := 0
	for _, b := range batches {
		var dealt []Task
		for _, t := range b {
			sw, ok := t.Obj.(*premia.Sweep)
			if !ok {
				cells.at[t.Name] = cellRef{sweep: -1}
				dealt = append(dealt, t)
				continue
			}
			block := &PricedBlock{Name: t.Name, Results: make([]premia.Result, len(sw.Cells))}
			for k := range sw.Cells {
				name := t.Name + "#" + strconv.Itoa(k)
				cells.at[name] = cellRef{sweep: len(cells.blocks), k: k}
				dealt = append(dealt, Task{Name: name, Obj: sw.Cell(k)})
			}
			cells.blocks = append(cells.blocks, Result{Name: t.Name, Value: block})
		}
		tasks += len(dealt)
		if len(dealt) > 0 { // an empty batch is the stop message
			out = append(out, dealt)
		}
	}
	if len(cells.at) != tasks {
		return nil, nil, fmt.Errorf("farm: %d tasks share names once the round's sweeps are dealt as cells (\"<sweep>#<k>\")", tasks-len(cells.at))
	}
	return out, cells, nil
}

// fold reads the cells' results into their blocks and returns the
// round's results as a by-reference round would have collected them: the
// ordinary tasks' as they are, then one block per sweep. A cell that
// failed is its block's Errs[k]; a block's Seconds is the
// sum over its cells, and its Worker the rank that answered last. Every
// task must have been answered exactly once.
func (sc *sweepCells) fold(results []Result) ([]Result, error) {
	out := results[:0]
	for _, r := range results {
		ref, ok := sc.at[r.Name]
		if !ok {
			return nil, fmt.Errorf("farm: result for %q, which the round does not await", r.Name)
		}
		delete(sc.at, r.Name)
		if ref.sweep < 0 {
			out = append(out, r)
			continue
		}
		p, err := AsPriced(r)
		if err != nil {
			return nil, err
		}
		sc.blocks[ref.sweep].Worker = r.Worker
		b := sc.blocks[ref.sweep].Value.(*PricedBlock)
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
	if len(sc.at) > 0 {
		return nil, fmt.Errorf("farm: round ended with %d tasks unanswered", len(sc.at))
	}
	return append(out, sc.blocks...), nil
}
