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

// stampThreads applies the engine's kernel thread count to a problem,
// cloning first so the caller's problem is never mutated; an explicit
// per-problem "threads" parameter wins.
func (e Engine) stampThreads(p *premia.Problem) *premia.Problem {
	if e.KernelThreads <= 0 {
		return p
	}
	if _, ok := p.Params["threads"]; ok {
		return p
	}
	return p.Clone().Set("threads", float64(e.KernelThreads))
}

// farmOptions are the settings of every round the engine farms, and of
// the workers it opens when it stands.
func (e Engine) farmOptions() farm.Options {
	return farm.Options{Strategy: farm.SerializedLoad, BatchSize: e.batch(), Telemetry: e.Telemetry, Fleet: e.Fleet}
}

// priced is one problem's slot in a priceRound answer.
type priced struct {
	res premia.Result
	// seconds is the worker-measured compute time of the task.
	seconds float64
	// err is the worker-side pricing failure, when every attempt failed.
	err error
}

// priceRound farms one round of problems over the engine's backend and
// returns their results index-aligned with the input — the engine's one
// route from problems to farm results. A problem ships as itself:
// in-process backends hand the worker the *premia.Problem and hand back
// its *farm.Priced, with no conversion to or from the nsp format in
// either direction; wire backends let the farm loader serialize it on
// demand and farm.AsPriced decode the result hash. The caller's problems
// must therefore stay unmutated until the round returns. names
// must be unique; they travel as the farm task names, for diagnostics
// and to pair each result with its slot, and are never parsed. The
// round is sized to the work: two problems do not spin up the full
// worker complement.
func (e Engine) priceRound(ctx context.Context, names []string, problems []*premia.Problem) ([]priced, error) {
	if len(problems) == 0 {
		return nil, nil
	}
	tasks := make([]farm.Task, len(problems))
	slot := make(map[string]int, len(problems))
	for i, p := range problems {
		tasks[i] = farm.Task{Name: names[i], Obj: e.stampThreads(p)}
		slot[names[i]] = i
	}
	results, err := e.backend().Run(ctx, tasks, e.farmOptions(), min(e.workers(), len(tasks)))
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("risk: pricing round cancelled: %w", ctx.Err())
		}
		return nil, fmt.Errorf("risk: pricing round farm: %w", err)
	}
	if len(results) != len(tasks) {
		return nil, fmt.Errorf("risk: farm returned %d results for %d tasks", len(results), len(tasks))
	}
	out := make([]priced, len(tasks))
	for _, r := range results {
		i, ok := slot[r.Name]
		if !ok {
			return nil, fmt.Errorf("risk: result for unknown task %q", r.Name)
		}
		if r.Err != nil {
			out[i].err = r.Err
			continue
		}
		p, err := farm.AsPriced(r)
		if err != nil {
			return nil, fmt.Errorf("risk: pricing round: %w", err)
		}
		out[i] = priced{res: p.Result, seconds: p.Seconds}
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

	fresh, err := e.priceRound(ctx, keys, misses)
	if err != nil {
		return nil, err
	}
	for k, f := range fresh {
		if f.err == nil && e.Cache != nil {
			e.Cache.Put(keys[k], f.res)
		}
		for _, i := range wanting[keys[k]] {
			out[i].Result, out[i].Err = f.res, f.err
		}
	}
	return out, nil
}
