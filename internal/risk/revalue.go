package risk

import (
	"context"
	"fmt"
	"strings"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// Engine revalues portfolios under scenarios on a live farm.
type Engine struct {
	// Workers is the number of pricing goroutines (default 4).
	Workers int
	// BatchSize groups atomic computations per message (default 16: the
	// bunching the paper's conclusion recommends, which matters here
	// because scenario grids multiply the task count).
	BatchSize int
	// KernelThreads, when > 0, is stamped as the "threads" parameter onto
	// every task whose problem does not already carry one, so each worker
	// shards its Monte Carlo path loops over that many cores via the
	// premia multicore pricing kernel. Prices are unchanged: the kernel's
	// shard decomposition is thread-invariant.
	KernelThreads int
	// Telemetry, when non-nil, receives the revaluation's metrics: the
	// farm's task histograms and spans, phase spans
	// (risk.build/risk.farm/risk.scatter under risk.revalue), task and
	// scenario counters, and the workers' compute seconds under two fixed
	// labels (risk.scenario_seconds.base / .shocked).
	Telemetry *telemetry.Registry
	// Cache, when non-nil, is a content-addressed store of pricing
	// results. PriceBatch reads through it and writes fresh results back;
	// RevalueContext reuses cached base-scenario prices (the unshifted
	// problems that repeat verbatim across revaluation runs) and stores
	// the ones it computes. Scenario-shifted problems have distinct
	// content keys and always price fresh.
	Cache PriceCache
	// Backend selects where the farm's workers live: nil (the default)
	// means farm.Local{}, a flat in-process goroutine world;
	// farm.Local{Groups, Chunk} runs the same round under a root master
	// and sub-masters; a NetBackend farms over a framed mpi transport
	// (tcp, unix, inproc) with per-connection protocol negotiation.
	// Distributed traces thread through any of them. Each round opens
	// and closes its own world unless the engine stands (Stand), after
	// which every round shares one session.
	Backend FarmBackend
	// Fleet, when non-nil, accumulates per-worker health (in-flight,
	// completions, failures, redeals, EWMA durations) across every farm
	// run this engine drives — what /debug/farm serves.
	Fleet *farm.Fleet
}

func (e Engine) backend() FarmBackend {
	if e.Backend == nil {
		return LocalBackend{}
	}
	return e.Backend
}

func (e Engine) workers() int {
	if e.Workers < 1 {
		return 4
	}
	return e.Workers
}

func (e Engine) batch() int {
	if e.BatchSize < 1 {
		return 16
	}
	return e.BatchSize
}

// Valuation holds the revaluation surface of one Engine.Revalue call.
//
// Indexing convention: the surface is Values[s][i] where s indexes
// Scenarios (0-based, the implicit base scenario is NOT a row — it
// lives in Base) and i indexes Items/Base in portfolio order. Each
// (s, i) pair the farm reprices occupies one slot of the round and its
// result is scattered back by that slot index; the task name
// "s%03d/<item>" (s000 = the base scenario, s001 = Scenarios[0]) is
// generated for spans and error messages and never parsed. Claims
// outside a scenario's risk-factor universe hold their base value in
// that row. Callers should use the Item* accessors rather than
// recomputing these offsets by hand.
type Valuation struct {
	// Items are the claim names, in portfolio order.
	Items []string
	// Scenarios echoes the input (without the implicit base).
	Scenarios []Scenario
	// Base holds each claim's base-scenario value.
	Base []float64
	// Values[s][i] is claim i's value under scenario s.
	Values [][]float64
	// BaseDelta[i] is claim i's base-scenario spot delta when the pricer
	// reported one (BaseHasDelta[i]); closed-form methods ship it over
	// the wire in the "delta"/"hasdelta" result fields, and cached base
	// results carry it too. Claims without a delta hold zero.
	BaseDelta []float64
	// BaseHasDelta marks which BaseDelta entries are real sensitivities
	// rather than absent ones.
	BaseHasDelta []bool
}

// ItemIndex returns the surface column of the named claim (the i of
// Values[s][i] and Base[i]), or -1 when the valuation has no such claim.
func (v *Valuation) ItemIndex(name string) int {
	for i, it := range v.Items {
		if it == name {
			return i
		}
	}
	return -1
}

// ItemPnL returns claim i's profit-and-loss under scenario s relative
// to its base value: Values[s][i] - Base[i].
func (v *Valuation) ItemPnL(s, i int) float64 {
	return v.Values[s][i] - v.Base[i]
}

// ItemPnLs returns claim i's P&L across every scenario, in scenario
// order — the per-position column the component-VaR attribution in
// internal/var consumes.
func (v *Valuation) ItemPnLs(i int) []float64 {
	out := make([]float64, len(v.Scenarios))
	for s := range v.Scenarios {
		out[s] = v.ItemPnL(s, i)
	}
	return out
}

// TotalBase returns the base portfolio value.
func (v *Valuation) TotalBase() float64 {
	sum := 0.0
	for _, x := range v.Base {
		sum += x
	}
	return sum
}

// ScenarioTotal returns the portfolio value under scenario s.
func (v *Valuation) ScenarioTotal(s int) float64 {
	sum := 0.0
	for _, x := range v.Values[s] {
		sum += x
	}
	return sum
}

// PnL returns the portfolio profit-and-loss of scenario s relative to the
// base valuation.
func (v *Valuation) PnL(s int) float64 {
	return v.ScenarioTotal(s) - v.TotalBase()
}

// PnLs returns the P&L of every scenario, in order.
func (v *Valuation) PnLs() []float64 {
	out := make([]float64, len(v.Scenarios))
	for s := range v.Scenarios {
		out[s] = v.PnL(s)
	}
	return out
}

// Report renders the scenario P&L table with VaR and expected shortfall
// at the given confidence.
func (v *Valuation) Report(alpha float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base portfolio value: %.2f (%d claims)\n", v.TotalBase(), len(v.Items))
	fmt.Fprintf(&b, "%-24s%16s%16s\n", "scenario", "value", "P&L")
	for s, sc := range v.Scenarios {
		fmt.Fprintf(&b, "%-24s%16.2f%16.2f\n", sc.Name, v.ScenarioTotal(s), v.PnL(s))
	}
	pnls := v.PnLs()
	fmt.Fprintf(&b, "scenario VaR(%.0f%%): %.2f   expected shortfall: %.2f\n",
		alpha*100, VaR(pnls, alpha), ExpectedShortfall(pnls, alpha))
	return b.String()
}

// taskName labels the (scenario, item) repricing for diagnostics (spans,
// farm errors); index -1 is the base scenario. The name is never parsed.
func taskName(scenario int, item string) string {
	return fmt.Sprintf("s%03d/%s", scenario+1, item)
}

// cell addresses one repricing of the surface: claim i under scenario s,
// s = -1 being the base column. key is set on a base cell whose result
// goes back into the engine's cache.
type cell struct {
	s, i int
	key  string
}

// Revalue prices every claim under the base parameters and under every
// scenario, farming the scenario×claim cross product over live workers —
// the paper's "huge number of atomic computations" pipeline in miniature.
func (e Engine) Revalue(pf *portfolio.Portfolio, scenarios []Scenario) (*Valuation, error) {
	return e.RevalueContext(context.Background(), pf, scenarios)
}

// RevalueContext is Revalue under a context. Cancellation is enforced
// two ways: the master stops dispatching cooperatively, and the local
// MPI world is closed so blocked workers unblock immediately; the
// context's error is returned.
func (e Engine) RevalueContext(ctx context.Context, pf *portfolio.Portfolio, scenarios []Scenario) (*Valuation, error) {
	reg := e.Telemetry
	// A revaluation is a natural trace root (one bench run / report): mint
	// a trace unless the caller already threads one through ctx.
	var revSpan *telemetry.Span
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		revSpan = reg.StartSpanIn(tc, "risk.revalue")
	} else {
		revSpan = reg.StartTrace("risk.revalue")
	}
	defer revSpan.End()
	val := &Valuation{
		Scenarios:    scenarios,
		Items:        make([]string, len(pf.Items)),
		Base:         make([]float64, len(pf.Items)),
		Values:       make([][]float64, len(scenarios)),
		BaseDelta:    make([]float64, len(pf.Items)),
		BaseHasDelta: make([]bool, len(pf.Items)),
	}
	for s := range scenarios {
		val.Values[s] = make([]float64, len(pf.Items))
	}

	// Build the cross product: slot k of the round reprices cells[k].
	buildSpan := revSpan.StartChild("risk.build")
	n := len(pf.Items) * (len(scenarios) + 1)
	cells := make([]cell, 0, n)
	names := make([]string, 0, n)
	problems := make([]*premia.Problem, 0, n)
	add := func(c cell, name string, p *premia.Problem) {
		cells = append(cells, c)
		names = append(names, taskName(c.s, name))
		problems = append(problems, p)
	}
	// skipped lists the cells outside their scenario's risk-factor
	// universe: they keep their base value (an equity spot ladder does not
	// move the credit book).
	var skipped []cell
	for i, it := range pf.Items {
		val.Items[i] = it.Name
		// With a cache, a stored base price skips the farm entirely and a
		// computed one is stored on the way out.
		base, cached := cell{s: -1, i: i}, false
		if e.Cache != nil {
			base.key = it.Problem.ContentKey()
			var res premia.Result
			if res, cached = e.Cache.Get(base.key); cached {
				val.Base[i], val.BaseDelta[i], val.BaseHasDelta[i] = res.Price, res.Delta, res.HasDelta
				reg.Counter("risk.base_cache_hits").Add(1)
			}
		}
		if !cached {
			add(base, it.Name, it.Problem)
		}
		for s, sc := range scenarios {
			if !sc.AppliesTo(it.Problem) {
				skipped = append(skipped, cell{s: s, i: i})
				continue
			}
			shifted, err := sc.Apply(it.Problem)
			if err != nil {
				return nil, err
			}
			add(cell{s: s, i: i}, it.Name, shifted)
		}
	}
	buildSpan.End()
	reg.Counter("risk.tasks").Add(int64(len(problems)))
	reg.Counter("risk.scenarios").Add(int64(len(scenarios)))

	// Farm them, threading the trace so the farm.run span (and the
	// workers' spans beyond it) parent onto risk.farm.
	farmSpan := revSpan.StartChild("risk.farm")
	farmCtx := ctx
	if tc := farmSpan.Context(); tc.Valid() {
		farmCtx = telemetry.ContextWithTrace(ctx, tc)
	}
	round, err := e.priceRound(farmCtx, names, problems)
	farmSpan.End()
	if err != nil {
		return nil, err
	}

	// Scatter the round into the valuation matrix by slot. Revaluation
	// timing is attributed to two fixed labels — the base column and the
	// shocked surface — from the compute time each worker measured: the
	// label set must not grow with the (request-controlled) scenario set.
	scatterSpan := revSpan.StartChild("risk.scatter")
	defer scatterSpan.End()
	baseSeconds, shockedSeconds := reg.Histogram("risk.scenario_seconds.base"), reg.Histogram("risk.scenario_seconds.shocked")
	baseResults, shockedResults := reg.Counter("risk.scenario_results.base"), reg.Counter("risk.scenario_results.shocked")
	for k, r := range round {
		c := cells[k]
		if r.err != nil {
			return nil, fmt.Errorf("risk: revalue %s: %w", names[k], r.err)
		}
		if c.s >= 0 {
			val.Values[c.s][c.i] = r.res.Price
			shockedSeconds.Observe(r.seconds)
			shockedResults.Add(1)
			continue
		}
		val.Base[c.i], val.BaseDelta[c.i], val.BaseHasDelta[c.i] = r.res.Price, r.res.Delta, r.res.HasDelta
		baseSeconds.Observe(r.seconds)
		baseResults.Add(1)
		if c.key != "" {
			e.Cache.Put(c.key, r.res)
		}
	}
	// Skipped (scenario, claim) pairs inherit the base value.
	for _, c := range skipped {
		val.Values[c.s][c.i] = val.Base[c.i]
	}
	return val, nil
}

// PortfolioGreeks aggregates claim-level sensitivities into book-level
// totals (simple sums: every claim is long one unit).
type PortfolioGreeks struct {
	// Value is the base book value.
	Value float64
	// Delta, Gamma, Vega, Theta, Rho are the summed sensitivities.
	Delta, Gamma, Vega, Theta, Rho float64
}

// Greeks computes claim-level greeks for every item of the portfolio
// (sequentially — intended for closed-form-dominated books or samples)
// and sums them.
func Greeks(pf *portfolio.Portfolio) (PortfolioGreeks, error) {
	var out PortfolioGreeks
	for _, it := range pf.Items {
		g, err := premia.ComputeGreeks(it.Problem, premia.GreekBumps{})
		if err != nil {
			return out, fmt.Errorf("risk: greeks of %s: %w", it.Name, err)
		}
		out.Value += g.Price
		out.Delta += g.Delta
		out.Gamma += g.Gamma
		out.Vega += g.Vega
		out.Theta += g.Theta
		out.Rho += g.Rho
	}
	return out, nil
}
