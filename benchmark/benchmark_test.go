package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself as the calibrator.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-calibrator" {
		calibratorMain()
		return
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSliceMedianRate(t *testing.T) {
	// Twenty operations of 10 units: one a second, but the operations of
	// the fourth slice take ten times as long. The median slice ignores
	// the burst; the mean would not.
	var doneAt []float64
	now := 0.0
	for i := 0; i < 20; i++ {
		step := 1.0
		if i == 6 || i == 7 {
			step = 10
		}
		now += step
		doneAt = append(doneAt, now)
	}
	if got := median(sliceRates(doneAt, 10, 10, nil)); !near(got, 10) {
		t.Errorf("slice median rate = %v, want 10", got)
	}
	if got := sliceRates(doneAt[:3], 10, 10, nil); len(got) != 3 || !near(median(got), 10) {
		t.Errorf("with fewer operations than slices = %v, want three slices of 10", got)
	}
	if got := sliceRates(nil, 10, 10, nil); len(got) != 0 {
		t.Errorf("no operations = %v, want no slice", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	got = quartileSpread([]float64{3, 1, 4, 1, 5})
	if want := (4.5 - 1.0) / 3.0; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},  // overlaps a
		{Name: "c", Start: 8, End: 12, Parent: 0}, // sticks out of the parent
		{Name: "d", Start: 3.5, End: 5, Parent: 2},
	}
	self, overlap := selfTimes(spans)
	// Children cover [1,6] and [8,10] of the parent: 7 of its 10.
	for i, want := range []float64{3, 3, 1.5, 4, 1.5} {
		if !near(self[i], want) {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want)
		}
	}
	// a and b count [3,4] twice.
	if !near(overlap[0], 1) {
		t.Errorf("overlap of the parent's children = %v, want 1", overlap[0])
	}
}

// stubServer answers every POST with 200 "ok", stalling the request
// numbered `stallAt` (from 0) for `stall`.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	})}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // ErrServerClosed at cleanup
		close(done)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestOpenLoopChargesTheStallToLaterOperations(t *testing.T) {
	const (
		stall  = 50 * time.Millisecond
		period = 5 * time.Millisecond
	)
	addr := stubServer(t, 3, stall)
	res := phase{
		addr: addr, requests: [][]byte{wireRequest("/x", []byte("{}"))},
		conns: 1, rate: float64(time.Second / period), count: 20,
	}.run(context.Background())
	for i, r := range res.ops {
		if r.failed {
			t.Fatalf("operation %d failed: %s", i, r.reason)
		}
	}
	// Operation 4 was due one period after the stalled one and could not
	// be sent until the stall ended: timed from its due time, it waited
	// out the rest of the stall. Timed from its send it would look fast.
	if got, floor := res.ops[4].latency, (stall - period - 5*time.Millisecond).Seconds(); got < floor {
		t.Errorf("operation after the stall took %.1f ms from its due time, want at least %.1f ms", got*1e3, floor*1e3)
	}
	if got := res.ops[2].latency; got > (stall / 2).Seconds() {
		t.Errorf("operation before the stall took %.1f ms, want well under the stall", got*1e3)
	}
	if got := lateP99ms(res); got < 30 {
		t.Errorf("late p99 = %.1f ms, want the %v stall to show", got, stall)
	}
}

func TestClosedLoopStopsOnTimeAndKeepsLast(t *testing.T) {
	addr := stubServer(t, -1, 0)
	res := phase{
		addr: addr, requests: [][]byte{wireRequest("/x", []byte("{}"))},
		conns: 1, duration: 50 * time.Millisecond,
		keep: func(i int) bool { return i == 0 }, keepLast: true,
	}.run(context.Background())
	n := len(res.ops)
	if n < 2 {
		t.Fatalf("only %d operations in 50 ms", n)
	}
	if string(res.kept[0]) != "ok" || string(res.kept[n-1]) != "ok" || len(res.kept) != 2 {
		t.Errorf("kept %d bodies %v, want the first and the last of %d", len(res.kept), res.kept, n)
	}
}

func TestBenchmarkJSONListsWhatTheBinaryPrints(t *testing.T) {
	file, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the binary has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v, the binary has %q: %q", i, got, w.name, w.why)
		}
	}
	if len(file.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("%d end-to-end metrics listed, the binary prints %d", len(file.EndToEnd), len(endToEndUnits))
	}
	for i, m := range endToEndUnits {
		got := file.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d is %s [%s], the binary prints %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
		// The contract caps a bound at a quarter and wants set-up time
		// to have the widest.
		if got.Bound <= 0 || got.Bound > 0.25 || got.Bound > file.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or wider than setup_s's", got.Name, got.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the binary prints %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := file.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d is %s [%s], the binary prints %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

func TestTracedReplayNestsItsSpans(t *testing.T) {
	point, _ := workloadByName("point_stream")
	in, err := point.build(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	g, err := newRig(rec, rigOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &traced{ctx: context.Background(), t0: time.Now(), cal: &calibrator{}, out: &outcome{Metrics: map[string]metric{}}}
	_, untraced, err := tr.replay(g, point, in, 1, 6, true)
	g.close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.out.Failed != 0 || tr.out.Attempted != 6 || len(untraced) != 3 {
		t.Fatalf("replay: attempted %d failed %d: %v", tr.out.Attempted, tr.out.Failed, tr.out.problems)
	}
	spans := rec.snapshot()
	chain := []string{"client.op", "serve.handler", "risk.price_batch", "farm.round", "farm.execute"}
	for depth := 1; depth < len(chain); depth++ {
		kids := recorded(spans, chain[depth])
		if len(kids) != 3 {
			t.Fatalf("%d %s spans, want one per operation", len(kids), chain[depth])
		}
		for _, s := range kids {
			if s.Parent < 0 || spans[s.Parent].Name != chain[depth-1] || spans[s.Parent].Op != s.Op {
				t.Errorf("%s of operation %d has parent %d, want its %s", s.Name, s.Op, s.Parent, chain[depth-1])
			}
		}
	}
	if c := closure(spans, untraced); c < 0.8 || c > 1.25 {
		t.Errorf("closure = %v, want near 1 (three operations: 0.8–1.25)", c)
	}
}

// TestSmokeRun is the one test that starts a child process: a
// one-second point_stream run against a real riskserver.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts riskserver")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the end-to-end run reads /proc")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build riskserver with")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // buildServer wants the repository root
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	point, _ := workloadByName("point_stream")
	out, err := runWorkload(ctx, bin, point, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted != pointRate {
		t.Fatalf("correct %v, attempted %d, failed %d: %v", out.Correct, out.Attempted, out.Failed, out.problems)
	}
	for _, m := range endToEndUnits {
		if v := out.Metrics[m.name].Value; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite number", m.name, v)
		}
	}
}
