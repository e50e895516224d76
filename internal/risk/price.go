package risk

import (
	"context"
	"fmt"
	"strconv"

	"riskbench/internal/farm"
	"riskbench/internal/premia"
)

// PriceOutcome is one problem's slot in a PriceBatch answer.
type PriceOutcome struct {
	// Result is the pricing result; valid only when Err is nil.
	Result premia.Result
	// Cached reports that the result came from a cache rather than a
	// fresh kernel evaluation. PriceBatch always prices fresh; the serving
	// layer sets it on the answers its cache gives.
	Cached bool
	// Err is the per-problem failure (validation or pricing); batch-level
	// failures are returned by PriceBatch itself.
	Err error
}

// farmOptions are the settings of the workers the engine opens when it
// stands, and — with batch tasks to a message — of a round it farms.
func (e Engine) farmOptions(batch int) farm.Options {
	return farm.Options{Strategy: farm.SerializedLoad, BatchSize: batch, Telemetry: e.Telemetry, Fleet: e.Fleet}
}

// priceRound farms one round of tasks over the engine's backend, batch of
// them to a message, and returns their results index-aligned with the
// input — the engine's one route to the farm, whether a task is one
// problem (PriceBatch) or a claim's sweep (RevalueContext). A task ships
// as its object: in-process backends hand the worker the *premia.Problem
// or *premia.Sweep itself and hand back its *farm.Priced or
// *farm.PricedBlock, with no conversion to or from the nsp format in
// either direction; wire backends let the farm serialize problems on
// demand and deal sweeps as their cells, and answer with result hashes
// (farm.AsPriced) and the same blocks. The objects must therefore stay
// unmutated until the round returns. The farm answers in task order, so
// names only label spans and errors, and are never parsed; the length
// check guards against a backend that does not. A result's Err is its
// task's pricing failure. The round is sized to the work: two tasks do
// not spin up the full worker complement.
func (e Engine) priceRound(ctx context.Context, tasks []farm.Task, batch int) ([]farm.Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	results, err := e.backend().Run(ctx, tasks, e.farmOptions(batch), min(e.workers(), len(tasks)))
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("risk: pricing round cancelled: %w", ctx.Err())
		}
		return nil, fmt.Errorf("risk: pricing round farm: %w", err)
	}
	if len(results) != len(tasks) {
		return nil, fmt.Errorf("risk: farm returned %d results for %d tasks", len(results), len(tasks))
	}
	return results, nil
}

// PriceBatch prices a slice of problems on the engine's live farm in one
// round: the entry point the serving layer's micro-batcher calls, so
// point lookups ride the same Robin-Hood path as portfolio sweeps. It
// prices what it is given — every valid problem, duplicates included —
// and neither reads nor writes the engine's Cache: the serving layer
// looks a problem up, and collapses identical requests, before it gets
// here. The outcome slice is index-aligned with the input; per-problem
// validation and pricing failures land in PriceOutcome.Err while
// transport-level failures (including context cancellation) are returned
// as the second value.
func (e Engine) PriceBatch(ctx context.Context, problems []*premia.Problem) ([]PriceOutcome, error) {
	reg := e.Telemetry
	// Adopt a distributed trace threaded through ctx (the serving layer
	// mints one per request); PriceBatch never mints its own, so untraced
	// callers stay metrics-only and the farm wire stays trace-free.
	ctx, span := reg.Start(ctx, "risk.price_batch", false)
	defer span.End()
	reg.Counter("risk.price.requests").Add(int64(len(problems)))

	out := make([]PriceOutcome, len(problems))
	// slots[k] is the input index of the k-th farmed problem: its task,
	// named k, is answered by fresh[k].
	var (
		slots []int
		tasks []farm.Task
	)
	for i, p := range problems {
		if p == nil {
			out[i].Err = fmt.Errorf("risk: nil problem at index %d", i)
			continue
		}
		if err := p.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		tasks = append(tasks, farm.Task{Name: strconv.Itoa(len(slots)), Obj: p})
		slots = append(slots, i)
	}
	reg.Counter("risk.price.farmed").Add(int64(len(tasks)))

	fresh, err := e.priceRound(ctx, tasks, e.Batch())
	if err != nil {
		return nil, err
	}
	for k, r := range fresh {
		o := &out[slots[k]]
		if o.Err = r.Err; r.Err != nil {
			continue
		}
		p, err := farm.AsPriced(r)
		if err != nil {
			return nil, fmt.Errorf("risk: pricing round: %w", err)
		}
		o.Result = p.Result
	}
	return out, nil
}
