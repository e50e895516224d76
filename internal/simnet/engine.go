package simnet

import (
	"container/heap"
	"fmt"
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
// NewEngine, add processes with Go, then call Run.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	// alive tracks started-but-unfinished processes for deadlock reporting.
	alive map[*Proc]bool
	// tracer, when non-nil, records send/recv/compute/nfs events.
	tracer *Tracer
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine {
	return &Engine{alive: make(map[*Proc]bool)}
}

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

// Proc is a simulated process. Its code runs in a dedicated goroutine but
// only while it holds the engine token, so process code never races with
// the engine or other processes.
type Proc struct {
	eng     *Engine
	name    string
	resume  chan struct{}
	yielded chan struct{}
	done    bool
	// blocked and recv say what a passively waiting process waits for, so
	// a deadlock report can name it: the reason given to block, or the
	// communicator whose receive it is parked in (the report formats that
	// one itself; a run blocks in receives a million times and fails once).
	blocked string
	recv    *Comm
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the engine's virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Go registers a process whose body starts at the current virtual time.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), yielded: make(chan struct{})}
	e.alive[p] = true
	go func() {
		<-p.resume
		body(p)
		p.done = true
		p.yielded <- struct{}{}
	}()
	e.schedule(e.now, func() { e.runProc(p) })
	return p
}

// runProc hands the token to p and waits for it to yield or finish.
func (e *Engine) runProc(p *Proc) {
	if p.done || !e.alive[p] {
		return
	}
	p.blocked, p.recv = "", nil
	p.resume <- struct{}{}
	<-p.yielded
	if p.done {
		delete(e.alive, p)
	}
}

// yield returns the token to the engine; the process resumes when some
// event calls runProc on it again.
func (p *Proc) yield() {
	p.yielded <- struct{}{}
	<-p.resume
}

// Sleep advances the process's clock by d virtual seconds. A non-positive
// d returns immediately without yielding.
func (p *Proc) Sleep(d float64) {
	if d <= 0 {
		return
	}
	e := p.eng
	e.schedule(e.now+d, func() { e.runProc(p) })
	p.yield() // no reason: its wake-up is scheduled, so no deadlock report lists it
}

// SleepUntil advances the process's clock to absolute time t.
func (p *Proc) SleepUntil(t float64) {
	p.Sleep(t - p.eng.now)
}

// block parks the process until some other event resumes it via wake.
func (p *Proc) block(reason string) {
	p.blocked = reason
	p.yield()
}

// waitingFor is the deadlock report's account of a parked process.
func (p *Proc) waitingFor() string {
	if c := p.recv; c != nil {
		return fmt.Sprintf("recv from %d tag %d", c.wantSource, c.wantTag)
	}
	return p.blocked
}

// wake schedules the process to resume at the current virtual time. It
// must only be called from engine context (inside an event closure or
// another process holding the token).
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

// Run executes events until none remain. It returns an *ErrDeadlock if
// processes are still alive afterwards, nil otherwise.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.t
		ev.fn()
	}
	if len(e.alive) > 0 {
		var names []string
		for p := range e.alive {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, p.waitingFor()))
		}
		sort.Strings(names)
		return &ErrDeadlock{Blocked: names}
	}
	return nil
}
