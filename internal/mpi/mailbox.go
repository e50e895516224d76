package mpi

import (
	"fmt"
	"sync"
)

// mailbox is an ordered store of received messages with blocking matched
// retrieval. It preserves arrival order per (source, tag) pair, which is
// all MPI guarantees, and in fact preserves global arrival order.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []message
	closed bool
	// lost is the first peer whose connection dropped while the owner was
	// live (hubs only); nil while every peer is connected.
	lost *LostError
}

// LostError is what a receive returns instead of waiting for a message
// that can no longer come: the connection to Rank dropped (Err is what
// its reader saw) while the communicator was open.
type LostError struct {
	Rank int
	Err  error
}

func (e *LostError) Error() string { return fmt.Sprintf("mpi: rank %d lost: %v", e.Rank, e.Err) }

// Unwrap exposes the cause, so errors.Is(err, io.EOF) tells an orderly
// disconnect from a protocol violation.
func (e *LostError) Unwrap() error { return e.Err }

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put appends a message and wakes all waiters.
func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.msgs = append(mb.msgs, m)
	mb.cond.Broadcast()
}

// close unblocks every waiter with ErrClosed.
func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// lose records that rank's connection dropped and wakes the waiters it
// strands. Only the first loss is kept: it is the one to report, and a
// round that outlives it has already failed.
func (mb *mailbox) lose(rank int, err error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.lost == nil {
		mb.lost = &LostError{Rank: rank, Err: err}
	}
	mb.cond.Broadcast()
}

// wait blocks until a message matching (source, tag) is queued and
// returns it, removing it from the queue if take is set. Nothing queued
// and nothing to wait for is an error: ErrClosed on a closed mailbox, the
// LostError when the wait names the lost rank — or names nobody, since
// the answer it is waiting for may be the one that rank owed. Waits on
// another, live rank are unaffected.
func (mb *mailbox) wait(source, tag int, take bool) (message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if matches(m, source, tag) {
				if take {
					mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				}
				return m, nil
			}
		}
		if mb.closed {
			return message{}, ErrClosed
		}
		if mb.lost != nil && (source == AnySource || source == mb.lost.Rank) {
			return message{}, mb.lost
		}
		mb.cond.Wait()
	}
}

// inbox is the receiving half of every communicator: the mailbox its
// transport delivers into, and the Probe and Recv that read it.
type inbox struct{ mbox *mailbox }

// Probe implements Comm.
func (in inbox) Probe(source, tag int) (Status, error) {
	m, err := in.mbox.wait(source, tag, false)
	return m.status(), err
}

// Recv implements Comm.
func (in inbox) Recv(source, tag int) ([]byte, Status, error) {
	m, err := in.mbox.wait(source, tag, true)
	return m.data, m.status(), err
}
