package farm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// sessionTasks builds round `round`'s n tasks the way the risk engine
// ships them — the *premia.Problem itself — under names every round
// shares, so only the rate tells one round's claim from another's.
func sessionTasks(round, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		p := premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
			Set("S0", 100).Set("r", 0.01*float64(round+1)).Set("sigma", 0.2).Set("K", 80+float64(i%40)).Set("T", 1+float64(i%8)/4)
		tasks[i] = Task{Name: fmt.Sprintf("s001/pb-%04d", i), Obj: p}
	}
	return tasks
}

// priceBits maps each result's task name to its price's bit pattern.
func priceBits(t *testing.T, results []Result) map[string]uint64 {
	t.Helper()
	bits := make(map[string]uint64, len(results))
	for _, r := range results {
		price, ok := priceOf(r)
		if !ok {
			t.Fatalf("result %s has no price (err %v)", r.Name, r.Err)
		}
		if _, dup := bits[r.Name]; dup {
			t.Fatalf("task %s answered twice", r.Name)
		}
		bits[r.Name] = math.Float64bits(price)
	}
	return bits
}

// waitGauge polls a session gauge until it reads want: the only view a
// test has of a round another goroutine is submitting.
func waitGauge(t *testing.T, reg *telemetry.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge(name).Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v after 5 s, want %v", name, reg.Gauge(name).Value(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSessionConcurrentRounds: rounds of different sizes run at once
// over one session, each get exactly their own results, bit-equal to the
// one-shot round — though every round names its tasks alike.
func TestSessionConcurrentRounds(t *testing.T) {
	sizes := []int{1, 5, 16, 40, 100, 333}
	opts := Options{Strategy: SerializedLoad, BatchSize: 4}
	// groups=0: a standing session is flat; the hierarchy runs one-shot only.
	t.Run("groups=0", func(t *testing.T) {
		s, err := Local{}.Open(opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]Result, len(sizes))
		errs := make([]error, len(sizes))
		var wg sync.WaitGroup
		for round, n := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[round], errs[round] = s.Run(context.Background(), sessionTasks(round, n), opts)
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for round, n := range sizes {
			if errs[round] != nil {
				t.Fatalf("round %d: %v", round, errs[round])
			}
			once, err := Local{}.Run(context.Background(), sessionTasks(round, n), opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			want, have := priceBits(t, once), priceBits(t, got[round])
			if len(have) != n || len(want) != n {
				t.Fatalf("round %d: %d results on the session, %d one-shot, want %d", round, len(have), len(want), n)
			}
			for name, bits := range want {
				if have[name] != bits {
					t.Errorf("round %d %s: session price bits %x, one-shot %x", round, name, have[name], bits)
				}
			}
		}
	})
}

// gatedExec prices a task only after taking a token from its gate (a
// closed gate lets everything through), announcing each start first —
// how the tests below hold a worker inside a batch.
type gatedExec struct {
	gate    chan struct{}
	started chan string
	// hold limits the gate to tasks whose name contains it.
	hold string
}

func (e gatedExec) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	if strings.Contains(name, e.hold) {
		if e.started != nil {
			e.started <- name
		}
		<-e.gate
	}
	return testResult(name, float64(len(payload))), nil
}

func namedTasks(prefix string, n int, payload string) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Name: fmt.Sprintf("%s-%03d", prefix, i), Data: []byte(payload)}
	}
	return tasks
}

// TestSessionCancelOneRound: cancelling a round mid-flight stops its
// dispatch, waits for the batches it has out, reports its context's
// error — and costs the round beside it nothing.
func TestSessionCancelOneRound(t *testing.T) {
	reg := telemetry.New()
	exec := gatedExec{gate: make(chan struct{}), started: make(chan string, 8), hold: "slow"}
	opts := Options{Strategy: SerializedLoad, Telemetry: reg}
	s, err := Local{Exec: exec}.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	slowErr := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, namedTasks("slow", 6, "x"), opts)
		slowErr <- err
	}()
	<-exec.started
	<-exec.started // both workers are inside a slow batch
	type outcome struct {
		results []Result
		err     error
	}
	fast := make(chan outcome, 1)
	go func() {
		results, err := s.Run(context.Background(), namedTasks("fast", 4, "yy"), opts)
		fast <- outcome{results, err}
	}()
	waitGauge(t, reg, "farm.session.queued_batches", 4+4)
	cancel()
	waitGauge(t, reg, "farm.session.queued_batches", 4) // the slow round's queue is gone
	select {
	case err := <-slowErr:
		t.Fatalf("cancelled round returned %v with two batches still out", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(exec.gate)
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round returned %v, want context.Canceled", err)
	}
	got := <-fast
	if got.err != nil {
		t.Fatalf("the round beside the cancelled one: %v", got.err)
	}
	if len(got.results) != 4 {
		t.Fatalf("the round beside the cancelled one got %d results, want 4", len(got.results))
	}
	for _, r := range got.results {
		if price, _ := priceOf(r); !strings.HasPrefix(r.Name, "fast-") || price != 2 {
			t.Errorf("foreign or wrong result %s = %v in the fast round", r.Name, price)
		}
	}
	select {
	case name := <-exec.started:
		t.Errorf("%s was dispatched after its round was cancelled", name)
	default:
	}
}

// TestSessionRotation: a one-batch round submitted behind a 4 096-task
// round is dealt as soon as a worker answers, not after the 256 batches
// queued before it.
func TestSessionRotation(t *testing.T) {
	reg := telemetry.New()
	exec := gatedExec{gate: make(chan struct{}), hold: "big"}
	opts := Options{Strategy: SerializedLoad, BatchSize: 16, Telemetry: reg}
	s, err := Local{Exec: exec}.Open(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bigDone := make(chan error, 1)
	go func() {
		results, err := s.Run(context.Background(), namedTasks("big", 4096, "x"), opts)
		if err == nil && len(results) != 4096 {
			err = fmt.Errorf("%d results, want 4096", len(results))
		}
		bigDone <- err
	}()
	waitGauge(t, reg, "farm.session.open_rounds", 1)
	smallDone := make(chan error, 1)
	go func() {
		results, err := s.Run(context.Background(), namedTasks("small", 1, "x"), opts)
		if err == nil && len(results) != 1 {
			err = fmt.Errorf("%d results, want 1", len(results))
		}
		smallDone <- err
	}()
	waitGauge(t, reg, "farm.session.open_rounds", 2)
	// Let exactly the big round's first batch through. The worker's next
	// batch is then the small round's, whose only task passes the gate.
	for i := 0; i < 16; i++ {
		exec.gate <- struct{}{}
	}
	select {
	case err := <-smallDone:
		if err != nil {
			t.Fatalf("small round: %v", err)
		}
	case err := <-bigDone:
		t.Fatalf("the 4096-task round finished (%v) before the one-batch round behind it", err)
	case <-time.After(5 * time.Second):
		close(exec.gate) // or the deferred Close waits for the held worker
		t.Fatal("the one-batch round is stuck behind the 4096-task round")
	}
	close(exec.gate)
	if err := <-bigDone; err != nil {
		t.Fatalf("big round: %v", err)
	}
}

// TestSessionRefusesWhatItCannotRun: a round under another strategy
// than the workers serve is an error at once, not a worker waiting for a
// payload that never comes; a round holding one task twice is no such
// round, and answers both, in order; and a closed session says so.
func TestSessionRefusesWhatItCannotRun(t *testing.T) {
	opts := Options{Strategy: SerializedLoad}
	s, err := Local{}.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	tasks, want := makePortfolio(t, 3)
	if _, err := s.Run(context.Background(), tasks, Options{Strategy: NFSLoad}); err == nil || !strings.Contains(err.Error(), "NFS") {
		t.Fatalf("an NFS round on a serialized-load session returned %v, want a strategy error", err)
	}
	twice := append(tasks[:len(tasks):len(tasks)], tasks[0])
	results, err := s.Run(context.Background(), twice, opts)
	if err != nil || len(results) != len(twice) {
		t.Fatalf("a round holding one task twice returned %d results, %v", len(results), err)
	}
	for i, r := range results {
		if price, ok := priceOf(r); r.Name != twice[i].Name || !ok || price != want[twice[i].Name] {
			t.Errorf("result %d: %s priced %v, want task %s at %v", i, r.Name, price, twice[i].Name, want[twice[i].Name])
		}
	}
	// The refusal cost the session nothing.
	results, err = s.Run(context.Background(), tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, want)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.Run(context.Background(), tasks, opts); !errors.Is(err, mpi.ErrClosed) {
		t.Fatalf("Run after Close returned %v, want mpi.ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestSessionRankFailure: a rank that dies of its own error fails the
// round in flight with that error and its rank — not the mpi.ErrClosed
// it causes everywhere else — and the session stays failed.
func TestSessionRankFailure(t *testing.T) {
	opts := Options{Strategy: NFSLoad}
	s, err := Local{}.Open(opts, 2) // NFS workers without a store
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := makePortfolio(t, 4)
	_, err = s.Run(context.Background(), tasks, opts)
	if err == nil || !strings.Contains(err.Error(), "farm: rank ") || !strings.Contains(err.Error(), "without a store") {
		t.Fatalf("round over storeless NFS workers returned %v, want the rank's own error", err)
	}
	if s.Err() == nil {
		t.Fatal("session still usable after a rank died")
	}
	if _, again := s.Run(context.Background(), tasks, opts); again == nil || again.Error() != err.Error() {
		t.Fatalf("round on the failed session returned %v, want %v", again, err)
	}
	if cerr := s.Close(); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("close of the failed session returned %v, want %v", cerr, err)
	}
}

// settledGoroutines reads the goroutine count once it has stopped
// falling: a goroutine that has signalled its exit may not have left the
// scheduler yet.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n && i > 10 {
			break
		}
		n = m
	}
	return n
}

// TestSessionCloseLeavesNoGoroutine: every rank is joined by Close, used or not.
func TestSessionCloseLeavesNoGoroutine(t *testing.T) {
	opts := Options{Strategy: SerializedLoad, BatchSize: 2}
	tasks, _ := makePortfolio(t, 9)
	before := settledGoroutines()
	for _, rounds := range []int{0, 3} {
		s, err := Local{}.Open(opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			if _, err := s.Run(context.Background(), tasks, opts); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := settledGoroutines(); after > before {
		t.Errorf("%d goroutines before Open, %d after Close", before, after)
	}
}

// TestSessionOwnsNoGoroutine: a session is driven by its callers, so
// opening one over ranks that are already serving starts nothing, and
// neither does a round on it.
func TestSessionOwnsNoGoroutine(t *testing.T) {
	opts := Options{Strategy: SerializedLoad, BatchSize: 2}
	world := mpi.NewLocalWorld(3)
	var wg sync.WaitGroup
	for rank := 1; rank < 3; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(world.Comm(rank), LiveExecutor{}, nil, opts); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}()
	}
	before := settledGoroutines()
	s, err := Open(world.Comm(0), opts, func() error { wg.Wait(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("%d goroutines before Open, %d after", before, after)
	}
	tasks, want := makePortfolio(t, 9)
	results, err := s.Run(context.Background(), tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, want)
	if after := settledGoroutines(); after != before {
		t.Errorf("%d goroutines before Open, %d after a round", before, after)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// heldLive prices for real, each task only after announcing its start
// and taking a token from the gate named by the prefix before its "/".
type heldLive struct {
	gates   map[string]chan struct{}
	started chan string
}

func (e heldLive) hold(name string) {
	e.started <- name
	<-e.gates[name[:strings.Index(name, "/")]]
}

func (e heldLive) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	e.hold(name)
	return LiveExecutor{}.Execute(name, payload, cost, size)
}

func (e heldLive) ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error) {
	e.hold(name)
	return LiveExecutor{}.ExecuteObj(name, obj, cost, size)
}

// prefixed names every task prefix/<name>.
func prefixed(prefix string, tasks []Task) []Task {
	for i := range tasks {
		tasks[i].Name = prefix + "/" + tasks[i].Name
	}
	return tasks
}

// TestSessionReceiverHandsOff: the caller holding the mailbox returns as
// soon as its own round is over, though a round it has been receiving for
// is still in flight; the waiting caller takes the mailbox over and its
// round completes, bit-equal to a one-shot round.
func TestSessionReceiverHandsOff(t *testing.T) {
	exec := heldLive{
		gates:   map[string]chan struct{}{"short": make(chan struct{}), "long": make(chan struct{})},
		started: make(chan string, 64),
	}
	opts := Options{Strategy: SerializedLoad, BatchSize: 4}
	s, err := Local{Exec: exec}.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type outcome struct {
		results []Result
		err     error
	}
	short, long := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		results, err := s.Run(context.Background(), prefixed("short", sessionTasks(0, 1)), opts)
		short <- outcome{results, err}
	}()
	if name := <-exec.started; !strings.HasPrefix(name, "short/") {
		t.Fatalf("%s started first, want the short round's task", name)
	}
	// The short round's caller now holds the mailbox: the long round is
	// dealt to the idle worker and its caller waits.
	go func() {
		results, err := s.Run(context.Background(), prefixed("long", sessionTasks(1, 40)), opts)
		long <- outcome{results, err}
	}()
	if name := <-exec.started; !strings.HasPrefix(name, "long/") {
		t.Fatalf("%s started second, want a long round's task", name)
	}
	close(exec.gates["short"])
	select {
	case got := <-short:
		if got.err != nil || len(got.results) != 1 {
			t.Fatalf("short round: %d results, %v", len(got.results), got.err)
		}
	case got := <-long:
		t.Fatalf("the long round returned (%v) with its gate shut", got.err)
	case <-time.After(5 * time.Second):
		close(exec.gates["long"]) // or the deferred Close waits for the held workers
		t.Fatal("the receiving caller did not return once its round was over")
	}
	select {
	case got := <-long:
		t.Fatalf("the long round returned (%v) with its gate shut", got.err)
	default:
	}
	close(exec.gates["long"])
	got := <-long
	if got.err != nil {
		t.Fatalf("long round: %v", got.err)
	}
	once, err := Local{}.Run(context.Background(), prefixed("long", sessionTasks(1, 40)), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, have := priceBits(t, once), priceBits(t, got.results)
	if len(have) != 40 || len(want) != 40 {
		t.Fatalf("%d results on the session, %d one-shot, want 40", len(have), len(want))
	}
	for name, bits := range want {
		if have[name] != bits {
			t.Errorf("%s: session price bits %x, one-shot %x", name, have[name], bits)
		}
	}
}

// TestSessionGauges is the paper's diagnostic, live: with every worker
// stalled inside a batch the session reads no idle workers and a queue;
// once it drains every worker is waiting for work; after Close nobody is.
func TestSessionGauges(t *testing.T) {
	const workers = 2
	reg := telemetry.New()
	exec := gatedExec{gate: make(chan struct{}), started: make(chan string, workers), hold: "job"}
	opts := Options{Strategy: SerializedLoad, Telemetry: reg}
	s, err := Local{Exec: exec}.Open(opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) float64 { return reg.Gauge("farm.session." + name).Value() }
	if gauge("idle_workers") != workers || gauge("open_rounds") != 0 {
		t.Fatalf("fresh session: idle_workers %v open_rounds %v, want %d and 0", gauge("idle_workers"), gauge("open_rounds"), workers)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), namedTasks("job", 6, "x"), opts)
		done <- err
	}()
	<-exec.started
	<-exec.started
	if gauge("idle_workers") != 0 || gauge("queued_batches") != 4 || gauge("open_rounds") != 1 {
		t.Errorf("stalled: idle_workers %v queued_batches %v open_rounds %v, want 0, 4 and 1",
			gauge("idle_workers"), gauge("queued_batches"), gauge("open_rounds"))
	}
	go func() {
		for range exec.started { // the remaining four starts
		}
	}()
	close(exec.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gauge("idle_workers") != workers || gauge("queued_batches") != 0 || gauge("open_rounds") != 0 {
		t.Errorf("drained: idle_workers %v queued_batches %v open_rounds %v, want %d, 0 and 0",
			gauge("idle_workers"), gauge("queued_batches"), gauge("open_rounds"), workers)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(exec.started)
	if gauge("idle_workers") != 0 {
		t.Errorf("closed: idle_workers %v, want 0", gauge("idle_workers"))
	}
}
