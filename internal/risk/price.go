package risk

import (
	"context"
	"fmt"

	"riskbench/internal/farm"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// PriceCache is a read-through store of pricing results keyed by
// premia.Problem.ContentKey. Implementations must be safe for concurrent
// use; the serving layer's sharded LRU cache is the canonical one. A nil
// cache (the Engine default) disables reuse.
type PriceCache interface {
	// Get returns the cached result for a content key, if present.
	Get(key string) (premia.Result, bool)
	// Put stores a freshly computed result under its content key.
	Put(key string, res premia.Result)
}

// PriceOutcome is one problem's slot in a PriceBatch answer.
type PriceOutcome struct {
	// Result is the pricing result; valid only when Err is nil.
	Result premia.Result
	// Cached reports that the result came from the engine's cache rather
	// than a fresh kernel evaluation in this call. Duplicates of a
	// problem priced within the same batch share the fresh evaluation
	// and report Cached=false.
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
// unmutated until the round returns. Task names must be unique; they pair
// each result with its slot and label spans and errors, and are never
// parsed. A result's Err is its task's pricing failure. The round is
// sized to the work: two tasks do not spin up the full worker complement.
func (e Engine) priceRound(ctx context.Context, tasks []farm.Task, batch int) ([]farm.Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	slot := make(map[string]int, len(tasks))
	for i, t := range tasks {
		slot[t.Name] = i
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
	out := make([]farm.Result, len(tasks))
	for _, r := range results {
		i, ok := slot[r.Name]
		if !ok {
			return nil, fmt.Errorf("risk: result for unknown task %q", r.Name)
		}
		out[i] = r
	}
	return out, nil
}

// PriceBatch prices a slice of problems on the engine's live farm in one
// round: the entry point the serving layer's micro-batcher calls, so
// point lookups ride the same Robin-Hood path as portfolio sweeps.
//
// Per problem it (1) answers from the engine's Cache when a result with
// the same content key is already stored, (2) dedupes identical problems
// within the batch so each distinct content key is evaluated exactly
// once, and (3) farms the remaining unique problems over the engine's
// workers. Fresh results are written back to the cache. The outcome
// slice is index-aligned with the input; per-problem validation and
// pricing failures land in PriceOutcome.Err while transport-level
// failures (including context cancellation) are returned as the second
// value.
func (e Engine) PriceBatch(ctx context.Context, problems []*premia.Problem) ([]PriceOutcome, error) {
	reg := e.Telemetry
	// Adopt a distributed trace threaded through ctx (the serving layer
	// mints one per request); PriceBatch never mints its own, so untraced
	// callers stay metrics-only and the farm wire stays trace-free.
	var span *telemetry.Span
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		span = reg.StartSpanIn(tc, "risk.price_batch")
		ctx = telemetry.ContextWithTrace(ctx, span.Context())
	} else {
		span = reg.StartSpan("risk.price_batch")
	}
	defer span.End()
	reg.Counter("risk.price.requests").Add(int64(len(problems)))

	out := make([]PriceOutcome, len(problems))
	// indices of every problem (leader and duplicates) wanting each
	// still-unpriced content key, in input order; keys and misses list
	// the leaders, which is what the farm prices.
	wanting := make(map[string][]int, len(problems))
	var (
		keys   []string
		misses []*premia.Problem
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
		key := p.ContentKey()
		if e.Cache != nil {
			if res, ok := e.Cache.Get(key); ok {
				out[i] = PriceOutcome{Result: res, Cached: true}
				reg.Counter("risk.price.cache_hits").Add(1)
				continue
			}
		}
		if _, dup := wanting[key]; dup {
			wanting[key] = append(wanting[key], i)
			reg.Counter("risk.price.deduped").Add(1)
			continue
		}
		wanting[key] = []int{i}
		keys = append(keys, key)
		misses = append(misses, p)
	}
	reg.Counter("risk.price.farmed").Add(int64(len(misses)))

	tasks := make([]farm.Task, len(misses))
	for k, p := range misses {
		tasks[k] = farm.Task{Name: keys[k], Obj: p}
	}
	fresh, err := e.priceRound(ctx, tasks, e.batch())
	if err != nil {
		return nil, err
	}
	for k, r := range fresh {
		var res premia.Result
		if r.Err == nil {
			p, err := farm.AsPriced(r)
			if err != nil {
				return nil, fmt.Errorf("risk: pricing round: %w", err)
			}
			res = p.Result
			if e.Cache != nil {
				e.Cache.Put(keys[k], res)
			}
		}
		for _, i := range wanting[keys[k]] {
			out[i].Result, out[i].Err = res, r.Err
		}
	}
	return out, nil
}
