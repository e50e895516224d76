package farm

import (
	"context"
	"fmt"
	"sync"

	"riskbench/internal/mpi"
	"riskbench/internal/telemetry"
)

// Session is a standing farm: worker ranks spawned once, any number of
// rounds run over them — concurrently — and one stop message at the end.
// The paper's slaves (Figs. 4–5) already loop until the empty message;
// a Session is the master that lets them, and the farm's one driver.
//
// A session owns no goroutine. A caller of Run submits its round, seeds
// whatever ranks are idle and, if nobody is receiving, takes the master's
// mailbox: it books each reply to the round its batch belongs to and
// feeds the rank that answered from the open rounds in rotation until its
// own round is over, then hands the mailbox to a waiting caller. All of
// it works under the session lock, which is never held across a receive.
//
// A transport failure — a worker's connection lost, a rank dying of its
// own error — fails the session: every round in flight returns the
// cause at once, later rounds are refused with it, and the owner closes
// the session and opens another.
type Session struct {
	strategy Strategy
	policy   assignment
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
	// receiving is set while a Run caller holds the mailbox. The others
	// wait on handoff, which is broadcast when a round finishes or the
	// receiver leaves — never per reply.
	receiving bool
	handoff   sync.Cond

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
func Open(c mpi.Comm, opts Options, join func() error) (*Session, error) {
	ranks, err := workerRanks(c, c.Size()-1)
	if err != nil {
		return nil, err
	}
	s := newSession(c, ranks, LiveLoader{}, sharedQueue, opts.Strategy)
	s.abort, s.join = func() { c.Close() }, join
	s.publishTo(opts.Telemetry)
	return s, nil
}

// newSession builds a session over master communicator c driving the
// given ranks, which aborts nothing and publishes no gauges.
func newSession(c mpi.Comm, workers []int, loader Loader, policy assignment, strategy Strategy) *Session {
	s := &Session{strategy: strategy, policy: policy, d: newDispatcher(c, workers, loader), abort: func() {}}
	s.handoff.L = &s.mu
	return s
}

// publishTo has the session keep the farm.session.* gauges of reg.
func (s *Session) publishTo(reg *telemetry.Registry) {
	s.d.gauges = newSessionGauges(reg)
	s.d.publish()
}

// Run farms one round of tasks over the session's workers and returns
// the results in task order: results[i] answers tasks[i], whatever order
// the workers answered in, and names only label. It is safe for
// concurrent callers; each gets exactly its own results, a failed task's
// with its Err. opts are the round's master-side settings — BatchSize,
// Telemetry, Fleet; the strategy is the workers' and must match the
// session's.
//
// Cancelling ctx is cooperative and costs only this round: nothing more
// of it is dispatched, its batches in flight drain, and ctx.Err() is
// returned; other rounds are untouched. A session that has failed
// returns the failure; a closed one mpi.ErrClosed.
func (s *Session) Run(ctx context.Context, tasks []Task, opts Options) ([]Result, error) {
	if opts.Strategy != s.strategy {
		return nil, fmt.Errorf("farm: round under %v on a session whose workers serve %v", opts.Strategy, s.strategy)
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
	defer s.mu.Unlock()
	if err := s.err; err != nil {
		return nil, err
	}
	r := s.d.submit(ctx, batches, s.policy, opts)
	for _, w := range s.d.workers {
		if s.d.slots[w].round != nil {
			continue
		}
		if err := s.d.feed(w); err != nil {
			s.failLocked(err)
			break
		}
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.d.cancel(r)
		s.handoff.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for !r.finished {
		if s.receiving {
			s.handoff.Wait()
		} else {
			s.receive(ctx, r)
		}
	}
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

// receive holds the mailbox, under s.mu, until r is over or the session
// fails. Checking ctx after each reply, before the feed, is the paper's
// master loop: every simulated makespan is pinned to that order.
func (s *Session) receive(ctx context.Context, r *round) {
	s.receiving = true
	defer func() {
		s.receiving = false
		s.handoff.Broadcast()
	}()
	for !r.finished {
		s.mu.Unlock()
		rep, err := recvResults(s.d.c)
		s.mu.Lock()
		if s.err != nil {
			return // the session failed meanwhile; the reply is moot
		}
		open := len(s.d.rounds)
		if err == nil {
			err = s.d.onReply(rep)
		}
		if err == nil && ctx.Err() != nil {
			s.d.cancel(r)
		}
		if err == nil {
			err = s.d.feed(rep.source)
		}
		if err != nil {
			s.failLocked(err)
			return
		}
		if len(s.d.rounds) < open && !r.finished {
			s.handoff.Broadcast() // another caller's round is over
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
	s.handoff.Broadcast()
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
// them. Rounds still open — the caller should have none — fail with
// mpi.ErrClosed. It reports the failure that ended the session, if one
// did, or else what join reports. Close is idempotent, and Run after
// Close returns mpi.ErrClosed.
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
		s.d.gauges.set(0, 0, 0) // no rank is waiting for work any more
		if failure != nil {
			s.closeErr = failure
		}
	})
	return s.closeErr
}
