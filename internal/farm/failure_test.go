package farm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// flakyExecutor fails the first `failures` attempts of each task whose
// name contains the trigger substring, then succeeds with a fixed price.
// It is shared across worker goroutines, hence the mutex.
type flakyExecutor struct {
	mu       sync.Mutex
	trigger  string
	failures int
	attempts map[string]int
}

func newFlaky(trigger string, failures int) *flakyExecutor {
	return &flakyExecutor{trigger: trigger, failures: failures, attempts: make(map[string]int)}
}

func (f *flakyExecutor) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	f.mu.Lock()
	f.attempts[name]++
	n := f.attempts[name]
	f.mu.Unlock()
	if strings.Contains(name, f.trigger) && n <= f.failures {
		return nil, fmt.Errorf("injected failure #%d", n)
	}
	return testResult(name, 42), nil
}

func runFlakyFarm(t *testing.T, run masterFunc, exec Executor, n, workers int, opts Options) []Result {
	t.Helper()
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Name: fmt.Sprintf("job-%02d", i), Data: []byte("x")}
	}
	return runFarm(t, run, exec, tasks, workers, opts, nil)
}

func TestNoRetryReportsErrors(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			exec := newFlaky("job-0", 1) // job-00..job-09 fail once
			results := runFlakyFarm(t, sched.run, exec, 15, 2, Options{Strategy: SerializedLoad})
			failed, succeeded := 0, 0
			for _, r := range results {
				if r.Err != nil {
					failed++
					if !strings.Contains(r.Err.Error(), "injected failure") {
						t.Errorf("error lost its cause: %v", r.Err)
					}
				} else {
					succeeded++
				}
			}
			if failed != 10 || succeeded != 5 {
				t.Fatalf("failed=%d succeeded=%d, want 10/5", failed, succeeded)
			}
		})
	}
}

// failingExec prices live but always fails task `fail`, counting how
// often it is asked to.
type failingExec struct {
	fail  string
	calls atomic.Int64
}

func (e *failingExec) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	if name == e.fail {
		e.calls.Add(1)
		return nil, errors.New("permanently broken")
	}
	return LiveExecutor{}.Execute(name, payload, cost, size)
}

// failureDrivers are the ways a round reaches its workers: both
// assignment policies and a session over an in-process world, and the
// Robin-Hood master over an inproc hub, where every result crosses as
// bytes. Each runs two workers; opts carries the master's registry and
// fleet. Worker ranks keep registries of their own — so their events
// reach the master only by shipping, rank-attributed — except on the
// session, whose ranks share the caller's.
var failureDrivers = []struct {
	name    string
	shipped bool
	run     func(t *testing.T, exec Executor, tasks []Task, opts Options) []Result
}{
	{"robin-hood", true, func(t *testing.T, exec Executor, tasks []Task, opts Options) []Result {
		return runEventFarm(t, RunMaster, exec, 2, tasks, opts)
	}},
	{"static", true, func(t *testing.T, exec Executor, tasks []Task, opts Options) []Result {
		return runEventFarm(t, RunStaticMaster, exec, 2, tasks, opts)
	}},
	{"session", false, func(t *testing.T, exec Executor, tasks []Task, opts Options) []Result {
		s, err := Local{Exec: exec}.Open(opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.RunOnce(context.Background(), tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}},
	{"hub", true, func(t *testing.T, exec Executor, tasks []Task, opts Options) []Result {
		results, err := runHubFarm(t, exec, tasks, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}},
}

// TestFarmFailureIsFinal: a task whose pricing fails is executed once and
// comes back with an Err naming its rank — one farm.task.fail event
// carrying that rank, one farm.task_errors, one failure on that rank's
// fleet row, nothing retried — on every driver, while every other task
// prices bit-equal to a fault-free round.
func TestFarmFailureIsFinal(t *testing.T) {
	tasks, _ := makePortfolio(t, 12)
	const poison = "pb-0005"
	for _, d := range failureDrivers {
		t.Run(d.name, func(t *testing.T) {
			opts := Options{Strategy: SerializedLoad, BatchSize: 3}
			want := priceBits(t, d.run(t, LiveExecutor{}, tasks, opts))
			exec := &failingExec{fail: poison}
			reg, fleet := telemetry.New(), NewFleet()
			opts.Telemetry, opts.Fleet = reg, fleet
			results := d.run(t, exec, tasks, opts)
			if n := exec.calls.Load(); n != 1 {
				t.Errorf("%s executed %d times, want once", poison, n)
			}
			var failed Result
			var rest []Result
			for _, r := range results {
				if r.Name == poison {
					failed = r
				} else {
					rest = append(rest, r)
				}
			}
			if len(results) != len(tasks) || failed.Err == nil {
				t.Fatalf("%d results, %s's error %v: want %d results and the failure", len(results), poison, failed.Err, len(tasks))
			}
			if rank := failed.Worker; rank < 1 || rank > 2 || !strings.Contains(failed.Err.Error(), fmt.Sprintf("failed on worker %d: permanently broken", rank)) {
				t.Errorf("%s came back from rank %d with %v, want its rank named", poison, rank, failed.Err)
			}
			have := priceBits(t, rest)
			if len(have) != len(tasks)-1 {
				t.Errorf("%d other tasks priced, want %d", len(have), len(tasks)-1)
			}
			for name, bits := range have {
				if want[name] != bits {
					t.Errorf("%s: price bits %x beside the failure, %x fault-free", name, bits, want[name])
				}
			}

			fails := reg.Events(telemetry.EventFilter{Prefix: "farm.task.fail"})
			if len(fails) != 1 {
				t.Fatalf("%d farm.task.fail events, want 1", len(fails))
			}
			ev := fails[0]
			if task, _ := fieldStr(ev, "task"); ev.Level != telemetry.LevelError || task != poison {
				t.Errorf("farm.task.fail is %v for task %q, want error for %s", ev.Level, task, poison)
			}
			if rank, ok := fieldNum(ev, "rank"); !ok || int(rank) != failed.Worker {
				t.Errorf("farm.task.fail rank = %v (present %v), want %d", rank, ok, failed.Worker)
			}
			if _, ok := fieldNum(ev, "attempts"); ok {
				t.Error("farm.task.fail still carries an attempts field")
			}
			cerrs := reg.Events(telemetry.EventFilter{Prefix: "farm.compute.error"})
			if len(cerrs) != 1 {
				t.Fatalf("%d farm.compute.error events at the master, want the worker's one", len(cerrs))
			}
			if msg, _ := fieldStr(cerrs[0], "err"); msg != "permanently broken" {
				t.Errorf("the compute error carries err %q, want the executor's", msg)
			}
			if d.shipped && cerrs[0].Rank != failed.Worker {
				t.Errorf("the shipped compute error is attributed to rank %d, want %d", cerrs[0].Rank, failed.Worker)
			}
			snap := reg.Snapshot()
			if n := snap.Counters["farm.task_errors"]; n != 1 {
				t.Errorf("farm.task_errors = %d, want 1", n)
			}
			if _, ok := snap.Counters["farm.retries"]; ok {
				t.Error("the registry still has a farm.retries counter")
			}
			rows := fleet.Snapshot()
			if len(rows) != 2 {
				t.Fatalf("%d fleet rows, want 2", len(rows))
			}
			for _, w := range rows {
				wantFailed := int64(0)
				if w.Rank == failed.Worker {
					wantFailed = 1
				}
				if w.Failed != wantFailed || w.InFlight != 0 {
					t.Errorf("rank %d: failed %d, in flight %d; want %d and 0", w.Rank, w.Failed, w.InFlight, wantFailed)
				}
			}
		})
	}
}

// misanswers are the replies of a broken worker to a batch of two
// tasks: a result short, a result too many, and results that name each
// other's task.
var misanswers = []struct {
	name   string
	answer func(names []string) []string
	want   string
}{
	{"short", func(n []string) []string { return n[:1] }, "rank 1 answered 1 results for a batch of 2 tasks"},
	{"long", func(n []string) []string { return append(n, n[0]) }, "rank 1 answered 3 results for a batch of 2 tasks"},
	{"misnamed", func(n []string) []string { return []string{n[1], n[0]} }, `rank 1 answered "pb-0001" for task "pb-0000"`},
}

// misanswer is a hand-written rank that prices nothing: it answers every
// batch it is sent with a result per name answer lists, until its
// communicator fails.
func misanswer(c mpi.Comm, answer func([]string) []string) {
	for {
		obj, _, err := mpi.RecvObj(c, 0, TagTask)
		if err != nil {
			return
		}
		desc, err := decodeBatch(obj)
		if err != nil || len(desc.Names) == 0 {
			return
		}
		if _, _, err := recvPayload(c, 0, len(desc.Names)); err != nil {
			return
		}
		out := nsp.NewList()
		for _, name := range answer(desc.Names) {
			out.Add(testResult(name, 42))
		}
		if mpi.SendObj(c, out, 0, TagResult) != nil {
			return
		}
	}
}

// TestMisansweringWorkerFailsTheSession: a reply that does not answer its
// batch task for task — one result short, one too many, or a result
// naming another task — fails the session at once with the rank named,
// by reference and over the wire, and Close leaves no goroutine behind.
func TestMisansweringWorkerFailsTheSession(t *testing.T) {
	opts := Options{Strategy: SerializedLoad, BatchSize: 2}
	tasks, _ := makePortfolio(t, 4)
	worlds := []struct {
		name string
		open func(t *testing.T, answer func([]string) []string) *Session
	}{
		{"local", func(t *testing.T, answer func([]string) []string) *Session {
			w := mpi.NewLocalWorld(2)
			done := make(chan struct{})
			go func() { defer close(done); misanswer(w.Comm(1), answer) }()
			s := newSession(w.Comm(0), []int{1}, LiveLoader{}, sharedQueue, opts.Strategy)
			s.abort, s.join = w.Close, func() error { <-done; return nil }
			return s
		}},
		{"inproc", func(t *testing.T, answer func([]string) []string) *Session {
			hub, err := mpi.ListenHubWith("", 2, mpi.WorldOptions{Transport: "inproc"})
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan error, 1)
			go func() { accepted <- hub.WaitWorkers() }()
			wc, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{Transport: "inproc"})
			if err != nil {
				t.Fatal(err)
			}
			if err := <-accepted; err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); defer wc.Close(); misanswer(wc, answer) }()
			s, err := Open(hub, opts, func() error { <-done; return nil })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, w := range worlds {
		for _, m := range misanswers {
			t.Run(w.name+"/"+m.name, func(t *testing.T) {
				before := settledGoroutines()
				s := w.open(t, m.answer)
				done := make(chan error, 1)
				go func() {
					results, err := s.Run(context.Background(), tasks, opts)
					if err == nil {
						err = fmt.Errorf("%d results for %d tasks, no error", len(results), len(tasks))
					}
					done <- err
				}()
				select {
				case err := <-done:
					if !strings.Contains(err.Error(), m.want) {
						t.Errorf("Run returned %v, want %q", err, m.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Run still waits on a worker that mis-answered")
				}
				if err := s.Close(); err == nil || !strings.Contains(err.Error(), "rank 1") {
					t.Errorf("Close returned %v, want the session's failure", err)
				}
				if after := settledGoroutines(); after > before {
					t.Errorf("%d goroutines before the session, %d after Close", before, after)
				}
			})
		}
	}
}
