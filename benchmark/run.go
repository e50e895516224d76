package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// trials is how many times a run sets the workload up and measures it,
// each time against a fresh server process, for a fifth of the time
// each. What disturbs a measurement on the shared box comes in stretches
// of seconds (see quietQuantile), and one long phase averages a stretch
// in; five short ones keep it in the trials it hit, where a run's
// statistics can leave it out, and five processes also average out
// whatever one process owes to the luck of its start. setup_s and
// priced_per_s are medians over the trials, cpu_us_per_priced their lower
// quartile, and the latency percentiles pool every operation (one odd
// trial is a fifth of the sample and barely moves them).
const trials = 5

// quietQuantile is the quantile of the trials' CPU costs a run reports:
// the second smallest of five. What the shared box does to a server's
// CPU time is one-sided — for stretches of 5 to 20 seconds a lightly
// loaded server pays up to 40% more per request while the calibrator's
// arithmetic slows by 3% — so the low end of the trials is the cost on a
// quiet machine, and it repeats where their median does not (ten runs
// with such stretches in four of them: quartile spread 4.7% against
// 13.7%). The smallest itself would chase the one lucky trial.
const quietQuantile = 0.25

// rateSlices is the number of equal consecutive slices priced_per_s is
// the median of: two in each trial.
const rateSlices = 10

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result in the benchmark contract's shape.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string          // what failed, for the human reading stderr
	notes     []string          // the as-measured numbers behind the reference-speed ones
}

// endToEndUnits lists the end-to-end metrics in print order.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"priced_per_s", "1/s"},
	{"cpu_us_per_priced", "us"},
}

// setUp performs one complete set-up of w: render every request from
// the seed, spawn the server, wait until it is ready, send the fixed
// warm-up. It returns the warm server, the inputs, and the set-up's
// duration at reference speed.
func setUp(ctx context.Context, bin string, cal *calibrator, w workload, seed uint64, measuredOps int) (*child, *inputs, float64, error) {
	begin, selfBefore := time.Now(), selfCPUSeconds()
	n := w.pool
	if n == 0 {
		n = measuredOps
	}
	in, err := w.build(seed, n+w.warmup)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := startChild(ctx, bin)
	if err != nil {
		return nil, nil, 0, err
	}
	// The warm-up sends the bodies after the measured phase's n, so the
	// measured phase never replays a request whose answers the warm-up
	// left in the cache, and operation i is request i.
	warm := phase{addr: srv.addr, requests: in.requests[n:], conns: w.conns, count: w.warmup}.run(ctx)
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, srv.failure(err)
	}
	for i, r := range warm.ops {
		if r.failed {
			return nil, nil, 0, srv.failure(fmt.Errorf("%s: warm-up operation %d failed: %s", w.name, i, r.reason))
		}
	}
	in.requests = in.requests[:n]
	end := time.Now()
	wall := end.Sub(begin).Seconds()
	busy := (selfCPUSeconds() - selfBefore + srv.cpuSeconds()) / wall
	return srv, in, atReference(wall, busy, cal.factor(begin, end)), nil
}

// trial is what one server process measured, at reference speed and as
// measured (raw).
type trial struct {
	attempted int
	lat, raw  []float64 // per operation, ms
	late      []float64 // open loop: per operation, ms behind schedule
	rates     []float64 // priced/s of each throughput slice
	rawRates  []float64
	cpu       float64 // server CPU µs per problem priced
	rawCPU    float64
	slowness  float64
	busy      float64
	stolen    float64 // seconds the hypervisor took from the machine during the phase
}

// measure drives one trial's measured phase against a warm server and
// checks its outputs. first and last say whether this is the run's first
// or last trial: a report workload recomputes the run's first and last
// report in process.
func measure(ctx context.Context, cal *calibrator, srv *child, w workload, in *inputs,
	length time.Duration, ops int, first, last bool, fail func(op int, why string)) (*trial, error) {
	cpu0, stolen0 := srv.cpuSeconds(), stolenSeconds()
	measured := phase{
		addr: srv.addr, requests: in.requests, conns: w.conns,
		rate: w.rate, count: ops, duration: length,
		keep: checkedOp,
	}
	if in.book != nil {
		measured.keep, measured.keepLast = func(i int) bool { return first && i == 0 }, last
		measured.accept = func(body []byte) bool { return bytes.Contains(body, []byte(`"estimates"`)) }
	}
	res := measured.run(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the phase is incomplete
	}
	cpu1, stolen1 := srv.cpuSeconds(), stolenSeconds()
	if !(cpu1 > cpu0) {
		return nil, srv.failure(fmt.Errorf("%s: cannot read the server's CPU time", w.name))
	}

	for i, r := range res.ops {
		if r.failed {
			fail(i, r.reason)
		}
	}
	kept := make([]int, 0, len(res.kept))
	for i := range res.kept {
		kept = append(kept, i)
	}
	sort.Ints(kept)
	for _, i := range kept {
		var err error
		if in.book != nil {
			err = checkReport(ctx, res.kept[i], in, i%len(in.requests))
		} else {
			err = checkPrices(res.kept[i], in.problems[i%len(in.requests)])
		}
		if err != nil {
			res.ops[i].failed = true
			fail(i, "wrong answer: "+err.Error())
		}
	}

	// busy is the share of the measured phase the server spent on a CPU.
	// Only that share of a duration scales with the machine's speed: a
	// saturated closed loop is all of it, point_stream's timer waits are
	// nearly none of it.
	tr := &trial{attempted: len(res.ops), busy: (cpu1 - cpu0) / res.wall, stolen: stolen1 - stolen0}
	at := func(offset float64) time.Time {
		return res.began.Add(time.Duration(offset * float64(time.Second)))
	}
	scaled := func(from, to float64) float64 {
		return atReference(to-from, tr.busy, cal.factor(at(from), at(to)))
	}
	// A failed operation misses every latency: it enters the sample at
	// the operation timeout and leaves the throughput count.
	var doneAt []float64
	for _, r := range res.ops {
		tr.late = append(tr.late, r.late*1e3)
		if r.failed {
			tr.lat, tr.raw = append(tr.lat, opTimeout.Seconds()*1e3), append(tr.raw, opTimeout.Seconds()*1e3)
			continue
		}
		tr.lat, tr.raw = append(tr.lat, scaled(r.doneAt-r.latency, r.doneAt)*1e3), append(tr.raw, r.latency*1e3)
		doneAt = append(doneAt, r.doneAt)
	}
	if len(doneAt) == 0 {
		return tr, nil
	}
	sort.Float64s(doneAt)
	// An open loop's throughput is its schedule's, not the machine's:
	// quoting it at another speed would only add the calibrator's noise.
	rateDuration := scaled
	if w.rate > 0 {
		rateDuration = nil
	}
	tr.rates = sliceRates(doneAt, float64(w.priced), rateSlices/trials, rateDuration)
	tr.rawRates = sliceRates(doneAt, float64(w.priced), rateSlices/trials, nil)
	tr.slowness = cal.factor(res.began, at(res.wall))
	tr.rawCPU = (cpu1 - cpu0) * 1e6 / float64(len(doneAt)*w.priced)
	tr.cpu = tr.rawCPU / tr.slowness
	return tr, nil
}

// runWorkload is one end-to-end run: `trials` times over, set the
// workload up and drive the measured phase for a `trials`-th of
// `seconds` against the fresh server, checking the outputs; then report
// the five end-to-end metrics at reference speed (see calibrate.go).
func runWorkload(ctx context.Context, bin string, w workload, seed uint64, seconds int) (*outcome, error) {
	cal, err := startCalibrator(ctx)
	if err != nil {
		return nil, err
	}
	defer cal.stop()
	length := time.Duration(seconds) * time.Second / trials
	ops := 0
	if w.rate > 0 {
		ops = int(math.Round(w.rate * length.Seconds()))
	}
	out := &outcome{Metrics: map[string]metric{}}
	var setups, lat, raw, late, rates, rawRates, cpu, rawCPU, slowness, busy []float64
	stolen := 0.0
	for t := 0; t < trials; t++ {
		srv, in, took, err := setUp(ctx, bin, cal, w, seed, ops)
		if err != nil {
			return nil, err
		}
		fail := func(op int, why string) {
			out.Failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: trial %d, operation %d: %s", w.name, t, op, why))
		}
		tr, err := measure(ctx, cal, srv, w, in, length, ops, t == 0, t == trials-1, fail)
		srv.stop()
		if err != nil {
			return nil, err
		}
		out.Attempted += tr.attempted
		setups = append(setups, took)
		lat, raw, late = append(lat, tr.lat...), append(raw, tr.raw...), append(late, tr.late...)
		rates, rawRates = append(rates, tr.rates...), append(rawRates, tr.rawRates...)
		stolen += tr.stolen
		if len(tr.rates) > 0 {
			cpu, rawCPU = append(cpu, tr.cpu), append(rawCPU, tr.rawCPU)
			slowness, busy = append(slowness, tr.slowness), append(busy, tr.busy)
		}
	}
	cal.stop()

	sort.Float64s(lat)
	sort.Float64s(raw)
	sort.Float64s(late)
	values := map[string]float64{
		"setup_s":           median(setups),
		"latency_p50_ms":    percentile(lat, 0.50),
		"latency_p90_ms":    percentile(lat, 0.90),
		"priced_per_s":      median(rates),
		"cpu_us_per_priced": percentile(sortedCopy(cpu), quietQuantile),
	}
	for _, m := range endToEndUnits {
		out.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"as measured: machine at %.3f× the reference chunk time, server busy %.2f of the phase, p50 %.4g ms, p90 %.4g ms, %.4g priced/s, %.4g CPU µs/priced",
		median(slowness), median(busy), percentile(raw, 0.50), percentile(raw, 0.90), median(rawRates), median(rawCPU)))
	out.notes = append(out.notes, fmt.Sprintf("CPU µs/priced of the %d server processes, at reference speed: %.4g", trials, cpu))
	out.notes = append(out.notes, fmt.Sprintf("the hypervisor took %.2f CPU-seconds from the machine during the measured phases", stolen))
	if w.rate > 0 {
		out.notes = append(out.notes, fmt.Sprintf("the open loop sent its operations p99 %.3f ms behind schedule", percentile(late, 0.99)))
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}
