package mpi

import (
	"errors"

	"riskbench/internal/nsp"
)

// Wildcards accepted by Probe and Recv, mirroring MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrClosed is returned by operations on a communicator that has been
// closed (locally or because the peer hub shut down).
var ErrClosed = errors.New("mpi: communicator closed")

// Status describes a matched message, like MPI_Status: the actual source
// rank, the actual tag, and the payload size in bytes (MPI_Get_elements
// with a character type).
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Comm is a ranked communicator. All operations are blocking, as in the
// paper's scripts; concurrency comes from running ranks in goroutines or
// processes. Implementations must allow concurrent calls from multiple
// goroutines.
type Comm interface {
	// Rank returns this process's rank in the communicator.
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send transmits data to dest with the given tag. The data is copied;
	// the caller may reuse the slice immediately.
	Send(data []byte, dest, tag int) error
	// Probe blocks until a message matching (source, tag) is available and
	// returns its status without consuming it. Use AnySource/AnyTag as
	// wildcards.
	Probe(source, tag int) (Status, error)
	// Recv blocks until a matching message arrives and returns its payload
	// and status.
	Recv(source, tag int) ([]byte, Status, error)
	// Close releases the communicator; pending and future blocking calls
	// return ErrClosed. A receive on a hub that can only be answered by a
	// peer whose connection has dropped returns a *LostError instead of
	// blocking.
	Close() error
}

// message is the internal representation of an in-flight message. Either
// data (a serialized stream, from Send) or obj (a by-reference object,
// from SendObjRef on same-address-space communicators) is set.
type message struct {
	source int
	tag    int
	data   []byte
	obj    nsp.Object
}

func (m message) status() Status {
	return Status{Source: m.source, Tag: m.tag, Bytes: len(m.data)}
}

func matches(m message, source, tag int) bool {
	return (source == AnySource || m.source == source) && (tag == AnyTag || m.tag == tag)
}
