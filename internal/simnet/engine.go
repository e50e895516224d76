package simnet

import (
	"container/heap"
	"fmt"
	"iter"
	"sort"
)

// event is a closure scheduled at a virtual time; seq breaks ties FIFO so
// simulations are deterministic.
type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine owns the virtual clock and the event queue. Create one with
// NewEngine, start one process per rank with World.Go, then call Run.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	// procs lists every process in start order.
	procs []*Proc
	// closed is set once the events run out with processes still parked:
	// every receive then returns mpi.ErrClosed, so each process can exit.
	closed bool
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// schedule enqueues fn at time t (>= now).
func (e *Engine) schedule(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, event{t: t, seq: e.seq, fn: fn})
}

// Proc is a simulated process: a coroutine the engine resumes with next
// and that hands control back with yield, so process code runs only
// between those two calls and never races with the engine or another
// process.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// recv is the communicator whose receive a parked process waits in, so
	// a deadlock report can name it (the report formats it itself; a run
	// parks in receives a million times and fails once).
	recv *Comm
}

// spawn registers a process whose body starts at the current virtual time.
func (e *Engine) spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	})
	e.procs = append(e.procs, p)
	e.schedule(e.now, func() { e.runProc(p) })
	return p
}

// runProc resumes p until it yields or finishes. A panic in p's body
// panics out of here, and so out of Run.
func (e *Engine) runProc(p *Proc) {
	if p.done {
		return
	}
	p.recv = nil
	_, ok := p.next()
	p.done = !ok
}

// Sleep advances the process's clock by d virtual seconds. A non-positive
// d returns immediately without yielding.
func (p *Proc) Sleep(d float64) {
	if d <= 0 {
		return
	}
	e := p.eng
	e.schedule(e.now+d, func() { e.runProc(p) })
	p.yield(struct{}{})
}

// SleepUntil advances the process's clock to absolute time t.
func (p *Proc) SleepUntil(t float64) {
	p.Sleep(t - p.eng.now)
}

// waitingFor is the deadlock report's account of a parked process.
func (p *Proc) waitingFor() string {
	if c := p.recv; c != nil {
		return fmt.Sprintf("recv from %d tag %d", c.wantSource, c.wantTag)
	}
	return ""
}

// wake schedules the process to resume at the current virtual time. It
// must only be called from engine context (inside an event closure or a
// running process).
func (p *Proc) wake() {
	e := p.eng
	e.schedule(e.now, func() { e.runProc(p) })
}

// ErrDeadlock is returned by Run when processes remain blocked with no
// pending events.
type ErrDeadlock struct {
	// Blocked lists the stuck processes and what they were waiting for.
	Blocked []string
}

// Error implements error.
func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("simnet: deadlock with %d blocked processes: %v", len(e.Blocked), e.Blocked)
}

// Run executes events until none remain. If processes are still parked
// then, it returns an *ErrDeadlock naming them, after resuming each (in
// start order, until all have exited) with its receives closed;
// otherwise it returns nil.
func (e *Engine) Run() error {
	var err error
	for {
		for len(e.events) > 0 {
			ev := heap.Pop(&e.events).(event)
			e.now = ev.t
			ev.fn()
		}
		var blocked []string
		for _, p := range e.procs {
			if !p.done {
				blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.waitingFor()))
			}
		}
		if blocked == nil {
			return err
		}
		if err == nil {
			sort.Strings(blocked)
			err = &ErrDeadlock{Blocked: blocked}
		}
		e.closed = true
		for _, p := range e.procs {
			e.runProc(p)
		}
	}
}
