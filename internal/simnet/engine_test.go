package simnet

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"riskbench/internal/mpi"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at []float64
	e.spawn("p", func(p *Proc) {
		p.Sleep(1.5)
		at = append(at, p.eng.now)
		p.Sleep(0.5)
		at = append(at, p.eng.now)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 1.5 || at[1] != 2.0 {
		t.Fatalf("timestamps %v", at)
	}
	if e.Now() != 2.0 {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-3)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestParallelProcsOverlap(t *testing.T) {
	// Two processes sleeping 10s each in parallel: makespan 10, not 20.
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.spawn("worker", func(p *Proc) { p.Sleep(10) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("makespan %v, want 10", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			e.spawn(name, func(p *Proc) {
				p.Sleep(1)
				order = append(order, name)
				p.Sleep(1)
				order = append(order, name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("length changed")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic interleaving: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.spawn("stuck", func(p *Proc) {
		p.yield(struct{}{}) // parked with no event to resume it
	})
	err := e.Run()
	dl, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked list %v", dl.Blocked)
	}
}

// TestDeadlockLeavesNoGoroutine: a deadlocked run resumes every parked
// rank with its receive closed, so each exits and takes its coroutine's
// goroutine with it instead of leaving it parked for the life of the
// binary.
func TestDeadlockLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		w := NewWorld(e, 3, LinkConfig{})
		for rank := 0; rank < 3; rank++ {
			w.Go(rank, "rank", func(c *Comm) {
				if _, err := c.Probe((c.Rank()+1)%3, 0); !errors.Is(err, mpi.ErrClosed) {
					t.Errorf("rank %d: Probe returned %v, want mpi.ErrClosed", c.Rank(), err)
				}
				if _, _, err := c.Recv(mpi.AnySource, mpi.AnyTag); !errors.Is(err, mpi.ErrClosed) {
					t.Errorf("rank %d: Recv returned %v, want mpi.ErrClosed", c.Rank(), err)
				}
			})
		}
		if dl, ok := e.Run().(*ErrDeadlock); !ok || len(dl.Blocked) != 3 {
			t.Fatalf("run %d: want a deadlock of 3 ranks, got %v", i, dl)
		}
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after 50 deadlocked runs, %d before", n, baseline)
	}
}

// TestProcPanicEscapesRun: a panicking process panics out of Run, on the
// caller's goroutine, where a deferred recover can see it.
func TestProcPanicEscapesRun(t *testing.T) {
	e := NewEngine()
	e.spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("process failed")
	})
	defer func() {
		if r := recover(); r != "process failed" {
			t.Fatalf("recovered %v, want the process's panic", r)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned after its process panicked")
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine()
	e.spawn("p", func(p *Proc) {
		p.SleepUntil(5)
		p.SleepUntil(3) // already past: no-op
		if p.eng.now != 5 {
			t.Errorf("now = %v", p.eng.now)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceFIFOQueue(t *testing.T) {
	// Three processes requesting a 1-second service at t=0 finish at 1, 2,
	// 3 seconds: the resource serialises them.
	e := NewEngine()
	var r Resource
	var finish []float64
	for i := 0; i < 3; i++ {
		e.spawn("client", func(p *Proc) {
			r.Use(p, 1)
			finish = append(finish, p.eng.now)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(finish[i]-want[i]) > 1e-12 {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestResourceIdleThenBusy(t *testing.T) {
	e := NewEngine()
	var r Resource
	var second float64
	e.spawn("a", func(p *Proc) {
		r.Use(p, 2) // occupies [0,2)
	})
	e.spawn("b", func(p *Proc) {
		p.Sleep(5) // arrives when the resource is idle again
		r.Use(p, 1)
		second = p.eng.now
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 6 {
		t.Fatalf("second finish %v, want 6 (no spurious queueing)", second)
	}
}
