package farm

import (
	"context"
	"fmt"
	"sync"

	"riskbench/internal/mpi"
)

// Session is a standing farm: worker ranks spawned once, any number of
// rounds run over them — concurrently — and one stop message at the end.
// The paper's slaves (Figs. 4–5) already loop until the empty message;
// a Session is the master that lets them.
//
// The session drives the same dispatch state machine as RunMaster, from
// two sides. A caller of Run submits its round and seeds whatever ranks
// are idle on its own goroutine, then waits; one pump goroutine, blocked
// in the master's mailbox, books each reply to the round its batch
// belongs to and feeds the rank that answered from the open rounds in
// rotation. Both work under the session lock, which is never held across
// a receive.
//
// A transport failure — a worker's connection lost, a rank dying of its
// own error — fails the session: every round in flight returns the
// cause at once, later rounds are refused with it, and the owner closes
// the session and opens another.
type Session struct {
	strategy Strategy
	// chunk, when positive, is the tasks per hand-off whatever the round
	// asks (the root→sub-master chunk of a hierarchical layout); zero
	// deals each round in batches of its own BatchSize.
	chunk int
	// abort unblocks every rank by closing the world; join waits for the
	// ranks to exit.
	abort func()
	join  func() error

	mu sync.Mutex
	d  *dispatcher
	// err is what ended the session: the first failure, or mpi.ErrClosed
	// once Close has begun. Rounds are refused with it.
	err error

	pumped    chan struct{} // closed when the pump has exited
	closeOnce sync.Once
	closeErr  error
}

// Open starts a session mastering ranks 1..Size-1 of c, which must
// already be serving RunWorker with opts.Strategy. The session owns c
// from here on and closes it in Close. join, when non-nil, waits for the
// workers to exit — after the stop message, or after c is closed under
// them — and reports what they died of; Close returns it.
// opts.Telemetry receives the session gauges (farm.session.open_rounds,
// .queued_batches, .idle_workers).
//
// The session's goroutine ends with Close, not with a context: a round
// brings its own to Run.
//
//lint:allow ctxflow the pump lives until Close; each round's context arrives with Run
func Open(c mpi.Comm, opts Options, join func() error) (*Session, error) {
	roles, err := Layout(c.Size(), 0)
	if err != nil {
		return nil, err
	}
	s := newSession(c, roles[0].Workers, opts)
	s.abort, s.join = func() { c.Close() }, join
	go s.pump()
	return s, nil
}

// newSession builds a session over master communicator c driving the
// given ranks; the caller sets abort and join and starts the pump.
func newSession(c mpi.Comm, workers []int, opts Options) *Session {
	s := &Session{strategy: opts.Strategy, d: newDispatcher(c, workers, LiveLoader{}), pumped: make(chan struct{})}
	s.d.gauges = newSessionGauges(opts.Telemetry)
	s.d.publish()
	return s
}

// Run farms one round of tasks over the session's workers and returns
// the results in completion order. It is safe for concurrent callers;
// each gets exactly its own results, a failed task's with its Err. opts
// are the round's master-side settings — BatchSize, Telemetry, Fleet;
// the strategy is the workers' and must match the session's.
//
// Cancelling ctx is cooperative and costs only this round: nothing more
// of it is dispatched, its batches in flight drain, and ctx.Err() is
// returned; other rounds are untouched. A session that has failed
// returns the failure; a closed one mpi.ErrClosed.
func (s *Session) Run(ctx context.Context, tasks []Task, opts Options) ([]Result, error) {
	if opts.Strategy != s.strategy {
		return nil, fmt.Errorf("farm: round under %v on a session whose workers serve %v", opts.Strategy, s.strategy)
	}
	if err := validateTasks(tasks); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	batch := s.chunk
	if batch < 1 {
		batch = opts.batchSize()
	}
	batches := splitBatches(tasks, batch)

	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return nil, err
	}
	r, err := s.d.submit(ctx, batches, sharedQueue, opts, make(chan struct{}))
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	for _, w := range s.d.workers {
		if s.d.slots[w].round != nil {
			continue
		}
		if err := s.d.feed(w); err != nil {
			s.failLocked(err)
			break
		}
	}
	s.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.d.cancel(r)
		s.mu.Unlock()
	})
	<-r.done
	stop()
	return r.results, r.err
}

// RunOnce is the one-shot round, for callers that have one task list and
// no use for the workers after it: Run, then Close whatever Run
// returned. The round's error wins; a clean round reports Close's.
func (s *Session) RunOnce(ctx context.Context, tasks []Task, opts Options) ([]Result, error) {
	results, err := s.Run(ctx, tasks, opts)
	if cerr := s.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return results, err
}

// pump is the session's receive side: block in the mailbox, book the
// reply, feed the rank that answered. It exits on the first receive
// error — the failure of the session, unless Close got there first (its
// stop message makes net workers hang up, and it closes the world).
func (s *Session) pump() {
	defer close(s.pumped)
	for {
		rep, err := recvResults(s.d.c)
		s.mu.Lock()
		if err == nil {
			err = s.d.onReply(rep)
		}
		if err == nil {
			err = s.d.feed(rep.source)
		}
		if err != nil {
			s.failLocked(err)
		}
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// fail ends the session with err unless it has already ended: the first
// failure is the one reported, so a rank that dies of its own error is
// not masked by the mpi.ErrClosed it causes elsewhere.
func (s *Session) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Session) failLocked(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	for len(s.d.rounds) > 0 {
		s.d.finish(s.d.rounds[0], err)
	}
	s.d.publish()
	s.abort()
}

// Err reports what ended the session — a failure, or mpi.ErrClosed — and
// nil while it is usable. The owner of a failed session closes it and
// opens another.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the session: the stop message to every rank, then join
// them and the pump. Rounds still open — the caller should have none —
// fail with mpi.ErrClosed. It reports the failure that ended the
// session, if one did, or else what join reports. Close is idempotent,
// and Run after Close returns mpi.ErrClosed.
//
//lint:allow ctxflow Close is the stop: it waits for ranks that the stop message or the closed world has just released
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		failure := s.err // what ended the session before Close could
		if failure == nil {
			if len(s.d.rounds) > 0 {
				s.failLocked(mpi.ErrClosed)
			} else if failure = sendStop(s.d.c, s.d.workers); failure != nil {
				s.failLocked(failure)
			} else {
				s.err = mpi.ErrClosed // the ranks leave on their own: nothing to abort
			}
		}
		s.mu.Unlock()
		if s.join != nil {
			s.closeErr = s.join()
		}
		s.abort()
		<-s.pumped
		s.d.gauges.set(0, 0, 0) // no rank is waiting for work any more
		if failure != nil {
			s.closeErr = failure
		}
	})
	return s.closeErr
}
