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

// PriceCache is a store of pricing results keyed by
// premia.Problem.ContentKey. Implementations must be safe for concurrent
// use; the serving layer's sharded LRU cache is the canonical one. A nil
// cache (the Engine default) disables reuse.
type PriceCache interface {
	// Get returns the cached result for a content key, if present.
	Get(key string) (premia.Result, bool)
	// Put stores a freshly computed result under its content key.
	Put(key string, res premia.Result)
}

// Engine revalues portfolios under scenarios on a live farm.
type Engine struct {
	// Workers is the number of pricing goroutines (default 4).
	Workers int
	// BatchSize groups atomic computations per message (default
	// DefaultBatchSize, 16: the bunching the paper's conclusion
	// recommends, which matters here because scenario grids multiply the
	// task count). PriceBatch sends that many problems to a message, and a
	// serve.Server's micro-batcher flushes at it. A revaluation farms
	// sweeps — one claim under its scenarios — and sizes them from it: a
	// sweep never holds more than 2 × BatchSize cells (a claim with more is
	// cut evenly into sweeps of at most that many), and claims with fewer
	// share a message up to 2 × BatchSize cells — unless every claim's
	// method is instantaneous, whose sub-microsecond cells are bunched into
	// about eight messages a worker (RevalueContext).
	BatchSize int
	// Telemetry, when non-nil, receives the revaluation's metrics: the
	// farm's task histograms and spans, phase spans
	// (risk.build/risk.farm/risk.scatter under risk.revalue), task and
	// scenario counters, and the workers' compute seconds under two fixed
	// labels (risk.scenario_seconds.base / .shocked). These count cells —
	// a sweep's measured seconds are shared evenly among its cells — while
	// the farm's own metrics (farm.*) count tasks, a revaluation's task
	// being a sweep.
	Telemetry *telemetry.Registry
	// Cache, when non-nil, is a content-addressed store of pricing
	// results for the base column: RevalueContext reuses cached
	// base-scenario prices (the unshifted problems that repeat verbatim
	// across revaluation runs) and stores the ones it computes.
	// Scenario-shifted problems have distinct content keys and always
	// price fresh, and PriceBatch never consults it.
	Cache PriceCache
	// Backend selects where the farm's workers live: nil (the default)
	// means farm.Local{}, a flat in-process goroutine world; a NetBackend
	// farms over a framed mpi transport (tcp, unix, inproc) with
	// per-connection protocol negotiation.
	// Distributed traces thread through any of them. Each round opens
	// and closes its own world unless the engine stands (Stand), after
	// which every round shares one session.
	Backend FarmBackend
	// Fleet, when non-nil, accumulates per-worker health (in-flight,
	// completions, failures, EWMA durations) across every farm
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

// DefaultBatchSize is the batch of an engine whose BatchSize is unset.
const DefaultBatchSize = 16

// Batch is the engine's effective batch size, which a serve.Server's
// micro-batcher also flushes at.
func (e Engine) Batch() int {
	if e.BatchSize < 1 {
		return DefaultBatchSize
	}
	return e.BatchSize
}

// Valuation holds the revaluation surface of one Engine.Revalue call.
//
// Indexing convention: the surface is Values[s][i] where s indexes
// Scenarios (0-based, the implicit base scenario is NOT a row — it
// lives in Base) and i indexes Items/Base in portfolio order. Each
// (s, i) pair the farm reprices is one cell of a sweep of claim i — the
// round's tasks are the sweeps, named by their claim — and its result is
// scattered back by its cell index in the sweep's block; the cell name
// "s%03d/<item>" (s000 = the base scenario, s001 = Scenarios[0]) is
// generated for the error message of a cell that fails and never
// parsed. Claims outside a scenario's risk-factor universe hold their
// base value in that row. Callers should use ItemPnL rather than
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

// ItemPnL returns claim i's profit-and-loss under scenario s relative
// to its base value: Values[s][i] - Base[i].
func (v *Valuation) ItemPnL(s, i int) float64 {
	return v.Values[s][i] - v.Base[i]
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

// taskName labels the (scenario, item) repricing in error messages; index
// -1 is the base scenario. The name is never parsed.
func taskName(scenario int, item string) string {
	return fmt.Sprintf("s%03d/%s", scenario+1, item)
}

// cell addresses one repricing of the surface: claim i under scenario s.
type cell struct{ s, i int }

// sweepSlot places one farmed sweep on the surface: cell k is claim i
// under scenario scen[k], -1 being the base column.
type sweepSlot struct {
	i    int
	scen []int
}

// messagesPerWorker is how many messages a bunched round deals each
// worker: enough messages for Robin Hood to balance within an eighth of a
// worker's share.
const messagesPerWorker = 8

// bunchedMessageBytes bounds a bunched message on a framed transport,
// where its sweeps are dealt as their cells, each a serialized problem:
// half of mpi's 64 MiB frame, so the answer — a result hash per cell —
// fits one too.
const bunchedMessageBytes = 32 << 20

// cellWireBytes bounds what one cell of a sweep over base weighs in a
// framed message. Every cell carries base's names and parameter table — a
// scenario overrides values, never adds a parameter — and 160 bytes, plus
// 32 a parameter, cover the nsp encoding around them (it needs 122 and
// 21). The bound matters because nothing caps a problem's parameter
// count: a claim padded with unread parameters still prices.
func cellWireBytes(base *premia.Problem) int {
	n := 160 + len(base.Asset) + len(base.Model) + len(base.Option) + len(base.Method)
	for k := range base.Params {
		n += 32 + len(k)
	}
	return n
}

// sweepsPerMessage is the batch size of a revaluation round of tasks
// sweeps over scenarios: as many sweeps as fit 2 × BatchSize cells, or,
// when bunch says every claim's method is instantaneous, enough to deal the
// round in messagesPerWorker messages a worker — capped so that a message
// of sweeps of at most 2 × BatchSize cells, each weighing at most weight
// bytes on a wire, stays within bunchedMessageBytes.
func (e Engine) sweepsPerMessage(tasks, scenarios int, bunch bool, weight int) int {
	limit := 2 * e.Batch()
	per := max(1, limit/(scenarios+1))
	if !bunch || tasks == 0 {
		return per
	}
	messages := messagesPerWorker * min(e.workers(), tasks)
	fit := bunchedMessageBytes / (weight * limit)
	return max(per, min((tasks+messages-1)/messages, fit))
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
//
// The unit it farms is the sweep: one claim with the parameter overrides
// of its scenarios (premia.Sweep), so the claim's parameter table is
// copied, its task named and its spans opened once per claim rather than
// once per cell. A sweep holds at most 2 × BatchSize cells: a claim with
// more is cut evenly into sweeps of at most that many. Claims with fewer
// share a message up to 2 × BatchSize cells, which bounds what a
// cancellation waits for — unless every claim's method is instantaneous
// (premia.Instantaneous). Such a round is bunched ("bunch problems", the
// paper's conclusion): its sweeps are dealt in about messagesPerWorker
// messages a worker, since a message of sub-microsecond cells costs the
// farm more than its cells cost the kernel. A bunched message is still
// no more than an eighth of a worker's share — at the /risk/report cap
// of 2²⁰ cells tens of milliseconds of work — and, over a framed
// transport where its sweeps are dealt as their cells, no more than
// bunchedMessageBytes.
// Grouping changes nothing else: every cell is priced as its own kernel
// call on the same parameters would price it.
func (e Engine) RevalueContext(ctx context.Context, pf *portfolio.Portfolio, scenarios []Scenario) (*Valuation, error) {
	reg := e.Telemetry
	// A revaluation is a natural trace root (one bench run / report): it
	// roots a trace unless the caller already threads one through ctx.
	ctx, revSpan := reg.Start(ctx, "risk.revalue", true)
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

	// Build the sweeps. Every cell of the round is a row of cells (its
	// overrides, cut from one array) and of scen (its scenario, -1 = the
	// base column); a sweep is a run of one claim's rows.
	buildSpan := revSpan.StartChild("risk.build")
	limit := 2 * e.Batch()
	shifts := 0
	for _, sc := range scenarios {
		shifts += len(sc.Shifts)
	}
	n := len(pf.Items) * (len(scenarios) + 1)
	cells, scen := make([][]premia.Override, 0, n), make([]int, 0, n)
	overrides := make([]premia.Override, 0, len(pf.Items)*shifts)
	tasks, slots := make([]farm.Task, 0, len(pf.Items)), make([]sweepSlot, 0, len(pf.Items))
	// keys[i] is set on a claim whose base price is farmed and goes back
	// into the engine's cache.
	keys := make([]string, len(pf.Items))
	// skipped lists the cells outside their scenario's risk-factor
	// universe: they keep their base value (an equity spot ladder does not
	// move the credit book).
	var skipped []cell
	var claim claimShifts
	// bunch holds while every farmed claim's method is instantaneous; weight
	// is then the heaviest of their cells on a wire.
	bunch, weight := true, 0
	for i, it := range pf.Items {
		val.Items[i] = it.Name
		claim.reset(it.Problem)
		first := len(cells)
		// With a cache, a stored base price skips the farm entirely and a
		// computed one is stored on the way out.
		cached := false
		if e.Cache != nil {
			keys[i] = it.Problem.ContentKey()
			var res premia.Result
			if res, cached = e.Cache.Get(keys[i]); cached {
				val.Base[i], val.BaseDelta[i], val.BaseHasDelta[i] = res.Price, res.Delta, res.HasDelta
				reg.Counter("risk.base_cache_hits").Add(1)
			}
		}
		if !cached {
			cells, scen = append(cells, nil), append(scen, -1)
		}
		for s, sc := range scenarios {
			mark := len(overrides)
			var applies bool
			if overrides, applies = sc.overrides(&claim, overrides); !applies {
				skipped = append(skipped, cell{s: s, i: i})
				continue
			}
			cells, scen = append(cells, overrides[mark:]), append(scen, s)
		}
		count := len(cells) - first
		if count == 0 {
			continue
		}
		if bunch = bunch && premia.Instantaneous(it.Problem.Method); bunch {
			weight = max(weight, cellWireBytes(it.Problem))
		}
		for part, parts := 0, (count+limit-1)/limit; part < parts; part++ {
			lo, hi := first+part*count/parts, first+(part+1)*count/parts
			name := it.Name
			if parts > 1 {
				name = fmt.Sprintf("%s[%d:%d]", it.Name, lo-first, hi-first)
			}
			tasks = append(tasks, farm.Task{Name: name, Obj: &premia.Sweep{Base: it.Problem, Cells: cells[lo:hi]}})
			slots = append(slots, sweepSlot{i: i, scen: scen[lo:hi]})
		}
	}
	buildSpan.End()
	reg.Counter("risk.tasks").Add(int64(len(cells)))
	reg.Counter("risk.scenarios").Add(int64(len(scenarios)))

	// Farm them, threading the trace so the farm.run span (and the
	// workers' spans beyond it) parent onto risk.farm.
	farmCtx, farmSpan := reg.Start(ctx, "risk.farm", false)
	round, err := e.priceRound(farmCtx, tasks, e.sweepsPerMessage(len(tasks), len(scenarios), bunch, weight))
	farmSpan.End()
	if err != nil {
		return nil, err
	}

	// Scatter the blocks into the valuation matrix by cell. Revaluation
	// timing is attributed to two fixed labels — the base column and the
	// shocked surface — from the compute time each worker measured, a
	// sweep's shared evenly among its cells and its shocked cells booked
	// together: the label set must not grow with the (request-controlled)
	// scenario set.
	scatterSpan := revSpan.StartChild("risk.scatter")
	defer scatterSpan.End()
	baseSeconds, shockedSeconds := reg.Histogram("risk.scenario_seconds.base"), reg.Histogram("risk.scenario_seconds.shocked")
	baseResults, shockedResults := reg.Counter("risk.scenario_results.base"), reg.Counter("risk.scenario_results.shocked")
	for t, r := range round {
		slot := slots[t]
		if r.Err != nil {
			return nil, fmt.Errorf("risk: revalue %s: %w", tasks[t].Name, r.Err)
		}
		block, ok := r.Value.(*farm.PricedBlock)
		if !ok || len(block.Results) != len(slot.scen) {
			return nil, fmt.Errorf("risk: revalue %s: a sweep of %d cells was answered by %T", tasks[t].Name, len(slot.scen), r.Value)
		}
		seconds, shocked := block.Seconds/float64(len(slot.scen)), int64(0)
		for k, res := range block.Results {
			s := slot.scen[k]
			if block.Errs != nil && block.Errs[k] != nil {
				return nil, fmt.Errorf("risk: revalue %s: %w", taskName(s, val.Items[slot.i]), block.Errs[k])
			}
			if s >= 0 {
				val.Values[s][slot.i] = res.Price
				shocked++
				continue
			}
			val.Base[slot.i], val.BaseDelta[slot.i], val.BaseHasDelta[slot.i] = res.Price, res.Delta, res.HasDelta
			baseSeconds.Observe(seconds)
			baseResults.Add(1)
			if keys[slot.i] != "" {
				e.Cache.Put(keys[slot.i], res)
			}
		}
		shockedSeconds.ObserveN(seconds, shocked)
		shockedResults.Add(shocked)
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
		g, err := premia.ComputeGreeks(it.Problem)
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
