package mpi

import (
	"fmt"
	"sync"

	"riskbench/internal/nsp"
)

// LocalWorld is an in-process communicator universe: n ranks sharing one
// address space, each rank owning a mailbox. It is the Go analogue of
// spawning Nsp slaves on the local node and merging communicators
// (paper Fig. 1).
type LocalWorld struct {
	comms []*LocalComm
	once  sync.Once
}

// NewLocalWorld creates a world of size ranks and returns it; fetch each
// rank's communicator with Comm.
func NewLocalWorld(size int) *LocalWorld {
	if size < 1 {
		panic("mpi: NewLocalWorld with size < 1")
	}
	w := &LocalWorld{comms: make([]*LocalComm, size)}
	for i := range w.comms {
		w.comms[i] = &LocalComm{inbox: inbox{newMailbox()}, world: w, rank: i}
	}
	return w
}

// Comm returns the communicator of the given rank.
func (w *LocalWorld) Comm(rank int) *LocalComm {
	return w.comms[rank]
}

// Close shuts down every rank's mailbox.
func (w *LocalWorld) Close() {
	w.once.Do(func() {
		for _, c := range w.comms {
			c.mbox.close()
		}
	})
}

// LocalComm is one rank's endpoint in a LocalWorld.
type LocalComm struct {
	inbox
	world *LocalWorld
	rank  int
}

var _ Comm = (*LocalComm)(nil)

// Rank implements Comm.
func (c *LocalComm) Rank() int { return c.rank }

// Size implements Comm.
func (c *LocalComm) Size() int { return len(c.world.comms) }

// Send implements Comm. The payload is copied so callers can reuse their
// buffers, matching the value semantics of a real network send.
func (c *LocalComm) Send(data []byte, dest, tag int) error {
	if dest < 0 || dest >= len(c.world.comms) {
		return fmt.Errorf("mpi: send to invalid rank %d (world size %d)", dest, c.Size())
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.world.comms[dest].mbox.put(message{source: c.rank, tag: tag, data: cp})
	return nil
}

// SendObjRef implements ObjRefComm: ranks of a LocalWorld share one
// address space, so the object is delivered by reference with no
// serialization. The caller must not mutate o after the send.
func (c *LocalComm) SendObjRef(o nsp.Object, dest, tag int) error {
	if dest < 0 || dest >= len(c.world.comms) {
		return fmt.Errorf("mpi: send to invalid rank %d (world size %d)", dest, c.Size())
	}
	c.world.comms[dest].mbox.put(message{source: c.rank, tag: tag, obj: o})
	return nil
}

// RecvObjRef implements ObjRefComm. Messages sent by reference come back
// as-is (one top-level Serial unsealed, matching RecvObj); byte messages
// from plain Send are decoded the usual way.
func (c *LocalComm) RecvObjRef(source, tag int) (nsp.Object, Status, error) {
	m, err := c.mbox.wait(source, tag, true)
	if err != nil {
		return nil, Status{}, err
	}
	if m.obj == nil {
		o, err := decodeObjStream(m.data)
		return o, m.status(), err
	}
	o, err := unseal(m.obj)
	return o, m.status(), err
}

// Close implements Comm; it closes only this rank's mailbox.
func (c *LocalComm) Close() error {
	c.mbox.close()
	return nil
}
