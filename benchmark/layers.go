package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"riskbench/internal/bench"
	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	varisk "riskbench/internal/var"
)

// perLayer lists every per-layer metric the traced run prints, with
// its unit, in print order. BENCHMARK.json restates the names; a test
// keeps the two in step. Layer names are the repository's packages.
var perLayer = []struct{ name, unit string }{
	{"serve.http_self_us", "us"},
	{"serve.batch_wait_us", "us"},
	{"serve.flush_size_mean", "count"},
	{"serve.flushes_per_batch_request", "count"},
	{"serve.cache_hit_us", "us"},
	{"serve.cache_miss_put_us", "us"},
	{"risk.price_batch_self_us_per_problem", "us"},
	{"risk.apply_us_per_task", "us"},
	{"risk.revalue_self_us_per_task", "us"},
	{"var.generate_us_per_scenario", "us"},
	{"var.aggregate_us_per_report", "us"},
	{"var.deltagamma_eval_us_per_scenario", "us"},
	{"var.sensitivities_s", "s"},
	{"farm.round_setup_us", "us"},
	{"farm.dispatch_us_per_task", "us"},
	{"farm.worker_idle_share", "ratio"},
	{"farm.round_inproc_us", "us"},
	{"farm.round_unix_us", "us"},
	{"mpi.local_roundtrip_us", "us"},
	{"mpi.inproc_roundtrip_us", "us"},
	{"mpi.hub_setup_inproc_us", "us"},
	{"nsp.serialize_us", "us"},
	{"nsp.unserialize_us", "us"},
	{"nsp.problem_bytes", "count"},
	{"premia.cf_compute_us", "us"},
	{"premia.content_key_us", "us"},
	{"premia.to_nsp_us", "us"},
	{"premia.real_compute_us_per_task", "us"},
	{"premia.class_ms.vanilla", "ms"},
	{"premia.class_ms.barrier_pde", "ms"},
	{"premia.class_ms.basket_mc", "ms"},
	{"premia.class_ms.locvol_mc", "ms"},
	{"premia.class_ms.amer_pde", "ms"},
	{"premia.class_ms.amer_lsm", "ms"},
	{"premia.kernel_share.var_real", "ratio"},
	{"premia.kernel_share.var_toy", "ratio"},
	{"portfolio.realistic_build_ms", "ms"},
	{"simnet.flat512_ratio", "ratio"},
	{"simnet.hier512_ratio", "ratio"},
	{"simnet.toy_master_busy_share", "ratio"},
	{"bench.sim_tasks_per_wall_s", "1/s"},
	{"telemetry.trace_overhead_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"closure.point", "ratio"},
	{"closure.book", "ratio"},
	{"closure.var_real", "ratio"},
	{"closure.var_toy", "ratio"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

// traced is one traced run in progress.
type traced struct {
	ctx   context.Context
	seed  uint64
	scale float64 // repetition counts are sized for defaultSeconds and scale with -seconds
	t0    time.Time
	cal   *calibrator
	spans []span
	out   *outcome
}

// n scales a repetition count chosen for a defaultSeconds run.
func (t *traced) n(base int) int {
	n := int(math.Round(float64(base) * t.scale))
	if n < 2 {
		n = 2
	}
	return n
}

func (t *traced) set(name string, v float64) { t.out.Metrics[name] = metric{Value: v} }

// since is the time elapsed since begin, in seconds at reference speed
// (see calibrate.go): the traced run's sections are computation from
// end to end, so every interval is divided by the machine's slowness
// over that same interval. The parts of a difference or a ratio are
// timed moments apart, and on this box moments apart can be 38% apart
// in speed.
func (t *traced) since(begin time.Time) float64 {
	now := time.Now()
	return now.Sub(begin).Seconds() / t.cal.factor(begin, now)
}

// absorb appends a section's spans to the run's, shifting their times
// onto the run's clock and their parents onto the run's indices. With
// convert set, every span tree is first rescaled about its root's start
// by the machine's slowness over the root's interval, so the spans read
// at reference speed; a timer-bound replay (point_stream's) is absorbed
// as measured.
func (t *traced) absorb(rec *recorder, convert bool) []span {
	section := rec.snapshot()
	if convert {
		// A parent is recorded before its children, so one pass finds
		// every span's root.
		root, slowness := make([]int, len(section)), make([]float64, len(section))
		for i, s := range section {
			root[i] = i
			if s.Parent >= 0 {
				root[i] = root[s.Parent]
				continue
			}
			at := func(sec float64) time.Time { return rec.t0.Add(time.Duration(sec * float64(time.Second))) }
			slowness[i] = t.cal.factor(at(s.Start), at(s.End))
		}
		for i := range section {
			// A root keeps its start, which anchors its tree.
			origin, f := section[root[i]].Start, slowness[root[i]]
			section[i].Start = origin + (section[i].Start-origin)/f
			section[i].End = origin + (section[i].End-origin)/f
		}
	}
	shift, base := rec.t0.Sub(t.t0).Seconds(), len(t.spans)
	for _, s := range section {
		s.Start, s.End = s.Start+shift, s.End+shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	return section
}

// sink keeps the timed loops' results alive.
var sink any

// perCallUS times n calls of fn, reps times over, and returns the
// median repetition's time per call in microseconds.
func (t *traced) perCallUS(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		begin := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = t.since(begin) * 1e6 / float64(n)
	}
	return median(per)
}

// medianUS is the median of a sample of seconds, in microseconds.
func medianUS(seconds []float64) float64 { return median(seconds) * 1e6 }

// runTraced is the traced run: in process, every layer timed from
// outside through its public calls, never mixed into the end-to-end
// numbers. It prints every per-layer metric whatever the workload named;
// the workload only seeds the inputs.
func runTraced(ctx context.Context, w workload, seed uint64, seconds int, spansPath string) (*outcome, error) {
	t := &traced{
		ctx: ctx, seed: seed, scale: float64(seconds) / defaultSeconds, t0: time.Now(),
		out: &outcome{Metrics: map[string]metric{}},
	}
	var err error
	if t.cal, err = startCalibrator(ctx); err != nil {
		return nil, err
	}
	defer t.cal.stop()
	sections := []func() error{
		t.pointSection, t.bookSection, t.cacheSection, t.varReplays, t.riskSection, t.varSection,
		t.farmSection, t.mpiSection, t.nspAndPremiaSection, t.simSection,
	}
	for _, section := range sections {
		if err := section(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	t.cal.stop()
	for _, m := range perLayer {
		got, ok := t.out.Metrics[m.name]
		if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("traced run produced no finite %s", m.name)
		}
		t.out.Metrics[m.name] = metric{Value: got.Value, Unit: m.unit}
	}
	if err := writeSpans(spansPath, t.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "traced run: %d spans written to %s\n", len(t.spans), spansPath)
	t.out.Correct = t.out.Failed == 0 && t.out.Attempted > 0
	return t.out, nil
}

// replay sends n operations of w, one at a time, through a rig's
// loopback listener, after `warm` unrecorded ones, and returns each
// operation's client-side seconds. With paired set, every second
// operation is sent unrecorded and its seconds are returned apart: the
// untraced twin of the traced operations, on the same server in the same
// minute. The first response is checked against an in-process
// recomputation.
func (t *traced) replay(g *rig, w workload, in *inputs, warm, n int, paired bool) (secs, unrecorded []float64, err error) {
	k := &client{addr: g.addr}
	defer k.close()
	for i := 0; i < warm; i++ {
		if _, err := g.op(k, -1, false, in.requests[n+i]); err != nil {
			return nil, nil, fmt.Errorf("%s replay warm-up: %w", w.name, err)
		}
	}
	g.flushCounts()
	for i := 0; i < n; i++ {
		record := !paired || i%2 == 0
		begin := time.Now()
		body, err := g.op(k, i, record, in.requests[i])
		took := time.Since(begin).Seconds()
		if w.rate == 0 {
			took = t.since(begin) // a closed loop's operations are computation
		}
		if record {
			secs = append(secs, took)
		} else {
			unrecorded = append(unrecorded, took)
		}
		t.out.Attempted++
		if err == nil && i == 0 {
			if in.book != nil {
				err = checkReport(t.ctx, body, in, 0)
			} else {
				err = checkPrices(body, in.problems[0])
			}
		}
		if err != nil {
			t.out.Failed++
			t.out.problems = append(t.out.problems, fmt.Sprintf("%s replay: operation %d: %v", w.name, i, err))
		}
	}
	return secs, unrecorded, nil
}

// replayed is what one replay on a fresh rig measured.
type replayed struct {
	secs    []float64 // client-side seconds of the recorded (or all, on an untraced rig) operations
	twins   []float64 // traced rig: the unrecorded twins' seconds
	spans   []span    // traced rig: the replay's spans
	flushes int       // micro-batch flushes, and
	flushed int       // the problems in them
}

// replayOn runs one replay on a fresh rig, its seams traced or not.
func (t *traced) replayOn(traceSeams bool, o rigOptions, w workload, in *inputs, warm, n int) (replayed, error) {
	var rec *recorder
	if traceSeams {
		rec = newRecorder()
	}
	g, err := newRig(rec, o)
	if err != nil {
		return replayed{}, err
	}
	var r replayed
	r.secs, r.twins, err = t.replay(g, w, in, warm, n, traceSeams)
	r.flushes, r.flushed = g.flushCounts()
	g.close()
	if err == nil && rec != nil {
		r.spans = t.absorb(rec, w.rate == 0)
	}
	return r, err
}

// closure cross-checks a replay's traced operations against their
// untraced twins: the median operation's self times summed over its span
// tree (each instant counted once, however many workers overlap), over
// the median untraced operation's client-side time. It is 1 when
// every span found its parent and nested inside it, and recording the
// spans did not slow the operation — the two things that must hold for
// the per-layer numbers to describe the end-to-end runs.
func closure(spans []span, untraced []float64) float64 {
	self, overlap := selfTimes(spans)
	var perOp []float64 // by operation number; unrecorded operations stay 0
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		for len(perOp) <= s.Op {
			perOp = append(perOp, 0)
		}
		perOp[s.Op] += self[i] - overlap[i]
	}
	var sums []float64
	for _, v := range perOp {
		if v > 0 {
			sums = append(sums, v)
		}
	}
	return median(sums) / median(untraced)
}

// recorded filters a section's spans to one name, recorded operations
// only.
func recorded(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Op >= 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfOf returns the self times of the recorded operations' spans of
// one name.
func selfOf(spans []span, name string) []float64 {
	self, _ := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Op >= 0 && s.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

func sum(vs []float64) float64 {
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total
}

func sumDurations(spans []span) float64 {
	sum := 0.0
	for _, s := range spans {
		sum += s.duration()
	}
	return sum
}

// pointSection replays point_stream in process and takes the
// lone-request metrics off the seams.
func (t *traced) pointSection() error {
	point, _ := workloadByName("point_stream")
	n := t.n(300)
	in, err := point.build(t.seed, n+8)
	if err != nil {
		return err
	}
	// Every lone request waits out the batcher's delay.
	r, err := t.replayOn(true, rigOptions{}, point, in, 8, n)
	if err != nil {
		return err
	}
	t.set("closure.point", closure(r.spans, r.twins))
	// serve.batch_wait_us: handler entry to flush, which for a lone
	// request is decode + enqueue (tens of µs) + the batcher's delay.
	var waits []float64
	for _, s := range recorded(r.spans, "risk.price_batch") {
		waits = append(waits, s.Start-r.spans[s.Parent].Start)
	}
	t.set("serve.batch_wait_us", medianUS(waits))

	// serve.http_self_us: a request answered from the cache never meets
	// the batcher, so its handler span is decode + admit + lookup +
	// encode with no timer in it; the same lookup through PriceProblem
	// is the part that is not HTTP.
	rec := newRecorder()
	g, err := newRig(rec, rigOptions{})
	if err != nil {
		return err
	}
	k := &client{addr: g.addr}
	hitWire, hitProblem := in.requests[0], in.problems[0][0]
	direct := make([]float64, t.n(2000))
	for i := -1; i < len(direct) && err == nil; i++ { // operation -1 fills the cache
		_, err = g.op(k, i, true, hitWire)
	}
	for i := range direct {
		begin := time.Now()
		out, perr := g.srv.PriceProblem(t.ctx, hitProblem)
		direct[i] = t.since(begin)
		if perr != nil || !out.Cached {
			err = fmt.Errorf("cache-hit lookup: cached=%v err=%v", out.Cached, perr)
		}
	}
	k.close()
	g.close()
	if err != nil {
		return err
	}
	var handled []float64
	for _, s := range recorded(t.absorb(rec, true), "serve.handler") {
		handled = append(handled, s.duration())
	}
	t.set("serve.http_self_us", medianUS(handled)-medianUS(direct))

	// loadgen.late_p99_ms: how far behind its schedule the open loop
	// sent, on an in-process replay at point_stream's rate.
	if g, err = newRig(nil, rigOptions{}); err != nil {
		return err
	}
	res := phase{addr: g.addr, requests: in.requests, conns: point.conns, rate: point.rate, count: n}.run(t.ctx)
	g.close()
	t.set("loadgen.late_p99_ms", lateP99ms(res))
	return nil
}

// bookSection replays book_batch in process: the saturated serving
// path, and what tracing — the harness's and the program's — costs it.
func (t *traced) bookSection() error {
	book, _ := workloadByName("book_batch")
	n := t.n(160)
	in, err := book.build(t.seed, n+4)
	if err != nil {
		return err
	}
	// Seams traced: every second operation is the unrecorded twin, so
	// what recording costs is read off pairs.
	r, err := t.replayOn(true, rigOptions{}, book, in, 4, n)
	if err != nil {
		return err
	}
	t.set("closure.book", closure(r.spans, r.twins))
	t.set("serve.flush_size_mean", float64(r.flushed)/float64(r.flushes))
	t.set("serve.flushes_per_batch_request", float64(r.flushes)/float64(n))
	t.set("risk.price_batch_self_us_per_problem", sum(selfOf(r.spans, "risk.price_batch"))*1e6/float64(len(r.secs)*bookSize))
	t.set("trace.overhead_share", median(r.secs)/median(r.twins)-1)

	// telemetry.trace_overhead_share: the program's own tracing on and
	// off needs two servers; short alternating blocks keep both in the
	// same minutes of the machine.
	var on, off []float64
	for b, nBlock := 0, t.n(16); b < 10; b++ {
		for _, disabled := range []bool{false, true} {
			r, err := t.replayOn(false, rigOptions{disableTracing: disabled}, book, in, 4, nBlock)
			if err != nil {
				return err
			}
			if disabled {
				off = append(off, r.secs...)
			} else {
				on = append(on, r.secs...)
			}
		}
	}
	t.set("telemetry.trace_overhead_share", median(on)/median(off)-1)
	return nil
}

// lateP99ms is the 99th percentile of how late an open-loop phase sent
// its operations, in milliseconds.
func lateP99ms(res phaseResult) float64 {
	late := make([]float64, len(res.ops))
	for i, r := range res.ops {
		late[i] = r.late * 1e3
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}

// hexKeys makes n distinct 64-character keys shaped like content keys.
func hexKeys(rng *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	return keys
}

// cacheSection times the result cache's two paths on the public
// serve.Cache at the server's default capacity.
func (t *traced) cacheSection() error {
	rng := rand.New(rand.NewSource(int64(t.seed)))
	n := t.n(100000)
	cache := serve.NewCache(serve.DefaultCacheSize, nil)
	resident := hexKeys(rng, serve.DefaultCacheSize)
	for _, k := range resident {
		cache.Put(k, premia.Result{Price: 1})
	}
	t.set("serve.cache_hit_us", t.perCallUS(5, n, func(i int) {
		res, _ := cache.Get(resident[i%len(resident)])
		sink = res.Price
	}))
	// Every Put lands in a full shard and evicts its oldest entry.
	const reps = 5
	fresh := hexKeys(rng, n)
	next := 0
	t.set("serve.cache_miss_put_us", t.perCallUS(reps, n/reps, func(int) {
		k := fresh[next]
		next++
		if _, ok := cache.Get(k); !ok {
			cache.Put(k, premia.Result{Price: 1})
		}
	}))
	return nil
}

// kernelSeconds is the time premia's kernels take for one report of in:
// every claim under every scenario of the first request, priced directly
// with Problem.Compute, the shifted problems built beforehand.
func (t *traced) kernelSeconds(in *inputs) (float64, int, error) {
	scens, err := varisk.DefaultMarket().GenerateParallel(t.ctx, in.scenarios, in.seeds[0], 1)
	if err != nil {
		return 0, 0, err
	}
	var shifted []*premia.Problem
	for _, it := range in.book.Items {
		for _, sc := range scens {
			p, err := sc.Apply(it.Problem)
			if err != nil {
				return 0, 0, err
			}
			shifted = append(shifted, p)
		}
	}
	secs := make([]float64, 5)
	for r := range secs {
		begin := time.Now()
		for _, p := range shifted {
			res, err := p.Compute()
			if err != nil {
				return 0, 0, err
			}
			sink = res
		}
		secs[r] = t.since(begin)
	}
	return median(secs), len(shifted), nil
}

// varReplays replays var_real and var_toy in process: the share of the
// workers' time that is kernel arithmetic is what tells the two apart.
func (t *traced) varReplays() error {
	workers := float64(serverWorkers())
	for _, name := range []string{"var_real", "var_toy"} {
		w, _ := workloadByName(name)
		n := t.n(20)
		in, err := w.build(t.seed, n+1)
		if err != nil {
			return err
		}
		// One unrecorded report first: it prices the base column, which
		// every later report reads from the cache.
		r, err := t.replayOn(true, rigOptions{}, w, in, 1, n)
		if err != nil {
			return err
		}
		t.set("closure."+name, closure(r.spans, r.twins))
		// premia.kernel_share: the kernels' own time for one report's
		// tasks, over the workers' wall time for the report.
		kernel, tasks, err := t.kernelSeconds(in)
		if err != nil {
			return err
		}
		t.set("premia.kernel_share."+name, kernel/(workers*median(r.secs)))
		if name == "var_real" {
			t.set("premia.real_compute_us_per_task", kernel*1e6/float64(tasks))
			executes, rounds := recorded(r.spans, "farm.execute"), recorded(r.spans, "farm.round")
			t.set("farm.worker_idle_share", 1-sumDurations(executes)/(workers*sumDurations(rounds)))
		}
	}
	return nil
}

// riskSection peels the toy revaluation: RevalueContext entered
// directly, its farm round seen through the backend seam.
func (t *traced) riskSection() error {
	pf := portfolio.Toy(toyClaims)
	scens, err := varisk.DefaultMarket().Generate(toyScenarios, t.seed+1)
	if err != nil {
		return err
	}
	tasks := float64(toyClaims * (toyScenarios + 1))
	rec := newRecorder()
	eng := risk.Engine{Workers: serverWorkers(), Backend: tracedBackend(rec)}
	var val *risk.Valuation
	for i, n := 0, t.n(5); i < n; i++ {
		rec.op.Store(int64(i))
		id := rec.start("risk.revalue", -1)
		val, err = eng.RevalueContext(withSpan(t.ctx, id), pf, scens)
		rec.finish(id)
		if err != nil {
			return err
		}
	}
	t.set("risk.revalue_self_us_per_task", medianUS(selfOf(t.absorb(rec, true), "risk.revalue"))/tasks)

	items := pf.Items
	t.set("risk.apply_us_per_task", t.perCallUS(5, len(items)*len(scens), func(i int) {
		p, err := scens[i%len(scens)].Apply(items[i/len(scens)].Problem)
		if err != nil {
			panic(err) // every toy claim carries every shifted parameter
		}
		sink = p
	}))

	// var.aggregate_us_per_report: what FullReval does after the
	// revaluation — scenario P&Ls, the VaR and CVaR quantiles, the tail
	// scenarios' per-claim attribution — through the same public calls.
	t.set("var.aggregate_us_per_report", t.perCallUS(5, t.n(200), func(int) {
		pnls := val.PnLs()
		v, es := risk.VaR(pnls, 0.99), risk.ExpectedShortfall(pnls, 0.99)
		worst := 0
		for s, x := range pnls {
			if x < pnls[worst] {
				worst = s
			}
		}
		total := 0.0
		for i := range val.Items {
			total += val.ItemPnL(worst, i)
		}
		sink = v + es + total
	}))
	return nil
}

// varSection times the estimators' own steps on the toy book.
func (t *traced) varSection() error {
	market := varisk.DefaultMarket()
	const batch = 4096
	t.set("var.generate_us_per_scenario", t.perCallUS(5, 1, func(int) {
		scens, err := market.GenerateParallel(t.ctx, batch, t.seed, 4)
		if err != nil {
			panic(err) // the default market's correlations are positive definite
		}
		sink = scens
	})/batch)

	pf := portfolio.Toy(toyClaims)
	eng := risk.Engine{Workers: serverWorkers()}
	var sens *varisk.Sensitivities
	secs := make([]float64, t.n(5))
	for i := range secs {
		begin := time.Now()
		var err error
		if sens, err = varisk.CollectSensitivities(t.ctx, eng, pf); err != nil {
			return err
		}
		secs[i] = t.since(begin)
	}
	t.set("var.sensitivities_s", median(secs))

	scens, err := market.Generate(1000, t.seed)
	if err != nil {
		return err
	}
	t.set("var.deltagamma_eval_us_per_scenario", t.perCallUS(5, t.n(20), func(int) {
		rep, err := varisk.DeltaGamma(sens, scens, varisk.Config{})
		if err != nil {
			panic(err) // generated scenarios always project onto the expansion's coordinates
		}
		sink = rep
	})/float64(len(scens)))
	return nil
}

// cfTasks makes n closed-form tasks; byRef ships the problem object the
// way PriceBatch does, otherwise serialized the way RevalueContext does.
func cfTasks(rng *rand.Rand, n int, byRef bool) ([]farm.Task, error) {
	tasks := make([]farm.Task, n)
	for i := range tasks {
		h, err := closedFormCall(rng).ToNsp()
		if err != nil {
			return nil, err
		}
		tasks[i] = farm.Task{Name: "t" + strconv.Itoa(i)}
		if byRef {
			tasks[i].Obj = h
			continue
		}
		ser, err := nsp.Serialize(h)
		if err != nil {
			return nil, err
		}
		tasks[i].Data = ser.Data
	}
	return tasks, nil
}

// farmSection times farm rounds on prebuilt tasks.
func (t *traced) farmSection() error {
	rng := rand.New(rand.NewSource(int64(t.seed)))
	workers := serverWorkers()
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: 16}

	// farm.round_setup_us: a one-task round minus its compute — build the
	// world, start the workers, one dispatch, stop, tear down.
	one, err := cfTasks(rng, 1, true)
	if err != nil {
		return err
	}
	rec := newRecorder()
	backend := tracedBackend(rec)
	for i, n := 0, t.n(1000); i < n; i++ {
		rec.op.Store(int64(i))
		if _, err := backend.Run(t.ctx, one, opts, 1); err != nil {
			return err
		}
	}
	setup := median(selfOf(t.absorb(rec, true), "farm.round"))
	t.set("farm.round_setup_us", setup*1e6)

	// farm.dispatch_us_per_task: one big round of serialized toy tasks.
	// With the workers computing in parallel the round's wall time holds
	// Σcompute/workers of kernel time; the rest, less one set-up, is the
	// master's per-task dispatch.
	const big = 4096
	many, err := portfolio.Toy(big).Tasks()
	if err != nil {
		return err
	}
	rec = newRecorder()
	backend = tracedBackend(rec)
	for i, n := 0, t.n(5); i < n; i++ {
		rec.op.Store(int64(i))
		if _, err := backend.Run(t.ctx, many, opts, workers); err != nil {
			return err
		}
	}
	spans := t.absorb(rec, true)
	executed := make([]float64, len(spans)) // Σ of each round's farm.execute children
	for _, s := range spans {
		if s.Parent >= 0 {
			executed[s.Parent] += s.duration()
		}
	}
	var per []float64
	for i, s := range spans {
		if s.Name == "farm.round" {
			per = append(per, (s.duration()-executed[i]/float64(workers)-setup)/big)
		}
	}
	t.set("farm.dispatch_us_per_task", medianUS(per))

	// The wire rounds: the same 16-task round over a framed hub world,
	// listen + handshake + round + teardown, as -transport inproc|unix
	// pays per flush.
	sixteen, err := cfTasks(rng, 16, false)
	if err != nil {
		return err
	}
	for _, tr := range []struct{ transport, addr string }{
		{"inproc", ""},
		// The socket lives in the build directory: the default is the
		// system temp directory, outside the checkout.
		{"unix", filepath.Join(buildDir, "farm.sock")},
	} {
		nb := &risk.NetBackend{Transport: tr.transport, Addr: tr.addr, Spawn: risk.GoNetWorkers(nil, 0)}
		secs := make([]float64, t.n(200))
		for i := range secs {
			begin := time.Now()
			if _, err := nb.Run(t.ctx, sixteen, opts, workers); err != nil {
				return fmt.Errorf("%s round: %w", tr.transport, err)
			}
			secs[i] = t.since(begin)
		}
		t.set("farm.round_"+tr.transport+"_us", medianUS(secs))
	}
	return nil
}

// pingPong times n 1 KB round trips between rank 0 and rank 1.
func (t *traced) pingPong(master, worker mpi.Comm, reps, n int) (float64, error) {
	const tag = 7
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < reps*n; i++ {
			data, _, err := worker.Recv(0, tag)
			if err == nil {
				err = worker.Send(data, 0, tag)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	payload := make([]byte, 1024)
	var failed error
	us := t.perCallUS(reps, n, func(int) {
		if failed != nil {
			return
		}
		if failed = master.Send(payload, 1, tag); failed == nil {
			_, _, failed = master.Recv(1, tag)
		}
	})
	if failed != nil {
		return 0, failed
	}
	return us, <-errc
}

// mpiSection times the message layer MatlabMPI-style: ping-pong on the
// public Send/Recv of each world shape.
func (t *traced) mpiSection() error {
	local := mpi.NewLocalWorld(2)
	us, err := t.pingPong(local.Comm(0), local.Comm(1), 5, t.n(20000))
	local.Close()
	if err != nil {
		return err
	}
	t.set("mpi.local_roundtrip_us", us)

	// A hub world over the inproc transport: listen, dial, HELO.
	openHub := func() (*mpi.HubComm, *mpi.WorkerComm, error) {
		o := mpi.WorldOptions{Transport: "inproc"}
		hub, err := mpi.ListenHubWith("", 2, o)
		if err != nil {
			return nil, nil, err
		}
		accepted := make(chan error, 1)
		go func() { accepted <- hub.WaitWorkers() }()
		wc, err := mpi.DialHubWith(hub.Addr(), o)
		if err == nil {
			err = <-accepted
		}
		if err != nil {
			hub.Close()
			return nil, nil, err
		}
		return hub, wc, nil
	}
	setups := make([]float64, t.n(200))
	for i := range setups {
		begin := time.Now()
		hub, wc, err := openHub()
		if err != nil {
			return err
		}
		setups[i] = t.since(begin)
		wc.Close()
		hub.Close()
	}
	t.set("mpi.hub_setup_inproc_us", medianUS(setups))

	hub, wc, err := openHub()
	if err != nil {
		return err
	}
	us, err = t.pingPong(hub, wc, 5, t.n(5000))
	wc.Close()
	hub.Close()
	if err != nil {
		return err
	}
	t.set("mpi.inproc_roundtrip_us", us)
	return nil
}

// realClasses maps the realistic book's claim-name prefixes onto the
// metric names of premia.class_ms.
var realClasses = []struct{ prefix, class string }{
	{"vanilla-", "vanilla"}, {"barrier-", "barrier_pde"}, {"basket-", "basket_mc"},
	{"locvol-", "locvol_mc"}, {"amerpde-", "amer_pde"}, {"amermc-", "amer_lsm"},
}

// nspAndPremiaSection times the codec and the kernels directly.
func (t *traced) nspAndPremiaSection() error {
	rng := rand.New(rand.NewSource(int64(t.seed)))
	p := closedFormCall(rng)
	h, err := p.ToNsp()
	if err != nil {
		return err
	}
	ser, err := nsp.Serialize(h)
	if err != nil {
		return err
	}
	n := t.n(20000)
	t.set("nsp.problem_bytes", float64(len(ser.Data)))
	t.set("nsp.serialize_us", t.perCallUS(5, n, func(int) { sink, _ = nsp.Serialize(h) }))
	t.set("nsp.unserialize_us", t.perCallUS(5, n, func(int) { sink, _ = ser.Unserialize() }))
	t.set("premia.cf_compute_us", t.perCallUS(5, n, func(int) { sink, _ = p.Compute() }))
	t.set("premia.content_key_us", t.perCallUS(5, n, func(int) { sink = p.ContentKey() }))
	t.set("premia.to_nsp_us", t.perCallUS(5, n, func(int) { sink, _ = p.ToNsp() }))

	// premia.class_ms: the realistic sample's claims priced directly,
	// each claim's median of three, averaged by product class.
	buildMS := make([]float64, 5)
	var book *portfolio.Portfolio
	for i := range buildMS {
		begin := time.Now()
		if book, err = realBook(); err != nil {
			return err
		}
		buildMS[i] = t.since(begin) * 1e3
	}
	t.set("portfolio.realistic_build_ms", median(buildMS))
	sum, count := map[string]float64{}, map[string]float64{}
	for _, it := range book.Items {
		ms := make([]float64, 3)
		for i := range ms {
			begin := time.Now()
			if _, err := it.Problem.Compute(); err != nil {
				return fmt.Errorf("%s: %w", it.Name, err)
			}
			ms[i] = t.since(begin) * 1e3
		}
		for _, c := range realClasses {
			if strings.HasPrefix(it.Name, c.prefix) {
				sum[c.class] += median(ms)
				count[c.class]++
			}
		}
	}
	for _, c := range realClasses {
		t.set("premia.class_ms."+c.class, sum[c.class]/count[c.class])
	}
	return nil
}

// simSection takes exact virtual-time counts from the cluster
// simulator, and the wall time simulating them took.
func (t *traced) simSection() error {
	tasks, err := varisk.SimTasks(portfolio.Realistic(), 2)
	if err != nil {
		return err
	}
	begin := time.Now()
	rows, err := bench.RunNestedSweep(t.ctx, tasks, []int{2, 512}, 16, 8, 32)
	if err != nil {
		return err
	}
	wall := t.since(begin)
	t.set("simnet.flat512_ratio", rows[1].Ratio)
	t.set("simnet.hier512_ratio", rows[2].Ratio)
	t.set("bench.sim_tasks_per_wall_s", float64(len(rows)*len(tasks))/wall)

	toy, err := portfolio.Toy(2000).Tasks()
	if err != nil {
		return err
	}
	stats, err := bench.RunWithStats(t.ctx, bench.RunConfig{Tasks: toy, CPUs: 16, Strategy: farm.SerializedLoad})
	if err != nil {
		return err
	}
	t.set("simnet.toy_master_busy_share", stats.MasterBusy/stats.Makespan)
	return nil
}
