package simnet

import (
	"fmt"

	"riskbench/internal/mpi"
)

// LinkConfig models the interconnect. Defaults (DefaultGigE) approximate
// MPI over the paper's Gigabit Ethernet.
type LinkConfig struct {
	// Latency is the one-way wire latency per message in seconds.
	Latency float64
	// Bandwidth is the link throughput in bytes/second.
	Bandwidth float64
	// SendOverhead is CPU time the sender spends per message (packing,
	// syscalls). It serialises a master that feeds many workers.
	SendOverhead float64
	// RecvOverhead is CPU time the receiver spends per message.
	RecvOverhead float64
}

// DefaultGigE is a Gigabit-Ethernet-like parameterisation: ~80 µs MPI
// latency, ~110 MB/s effective bandwidth, tens of microseconds of CPU per
// message at each end.
var DefaultGigE = LinkConfig{
	Latency:      80e-6,
	Bandwidth:    110e6,
	SendOverhead: 25e-6,
	RecvOverhead: 25e-6,
}

// transfer returns the serialisation (bandwidth) time of n bytes.
func (l LinkConfig) transfer(n int) float64 {
	if l.Bandwidth <= 0 {
		return 0
	}
	return float64(n) / l.Bandwidth
}

// World is a simulated cluster: size ranks with mailboxes connected by a
// uniform link. Build it before Run with NewWorld and start one process
// per rank with Go.
type World struct {
	eng    *Engine
	link   LinkConfig
	comms  []*Comm
	speeds []float64
}

// NewWorld creates a simulated world of the given size with homogeneous
// unit-speed nodes.
func NewWorld(eng *Engine, size int, link LinkConfig) *World {
	if size < 1 {
		panic("simnet: NewWorld with size < 1")
	}
	w := &World{eng: eng, link: link, comms: make([]*Comm, size), speeds: make([]float64, size)}
	for i := range w.comms {
		w.comms[i] = &Comm{world: w, rank: i}
		w.speeds[i] = 1
	}
	return w
}

// SetSpeed sets a node's relative compute speed (1 = nominal, 0.5 = twice
// as slow). It models the heterogeneous and background-loaded nodes of a
// real cluster — one of the effects that separate the paper's measured
// ratios from an ideal simulator. It panics on non-positive factors.
func (w *World) SetSpeed(rank int, factor float64) {
	if factor <= 0 {
		panic("simnet: node speed must be positive")
	}
	w.speeds[rank] = factor
}

// BusyTime returns the cumulative virtual seconds the rank spent
// computing (not waiting), for utilisation reports.
func (w *World) BusyTime(rank int) float64 { return w.comms[rank].busy }

// Utilization returns BusyTime(rank) divided by the elapsed virtual time,
// 0 if the clock has not advanced.
func (w *World) Utilization(rank int) float64 {
	if w.eng.now <= 0 {
		return 0
	}
	return w.comms[rank].busy / w.eng.now
}

// Go starts rank's process at the current virtual time: body runs as a
// simulated process with the rank's communicator. Processes started at
// the same instant first run in the order they were started.
func (w *World) Go(rank int, name string, body func(c *Comm)) {
	c := w.comms[rank]
	c.proc = w.eng.spawn(name, func(*Proc) { body(c) })
}

// simMessage is an in-flight or delivered message.
type simMessage struct {
	source int
	tag    int
	data   []byte
}

// Comm implements mpi.Comm in virtual time. Each Comm belongs to the one
// simulated process World.Go started for its rank.
type Comm struct {
	world *World
	rank  int
	proc  *Proc
	inbox []simMessage
	// busy accumulates compute-occupied virtual time for utilisation
	// reports.
	busy float64
	// waiter is the process blocked in Probe/Recv, if any, with its match
	// pattern.
	waiting    bool
	wantSource int
	wantTag    int
}

var _ mpi.Comm = (*Comm)(nil)

// Proc returns the rank's process.
func (c *Comm) Proc() *Proc { return c.proc }

// Rank implements mpi.Comm.
func (c *Comm) Rank() int { return c.rank }

// Size implements mpi.Comm.
func (c *Comm) Size() int { return len(c.world.comms) }

// Compute occupies the owning process for the given virtual seconds of
// nominal work, stretched by the node's speed factor; it is how simulated
// workers "price" an option whose cost is known.
func (c *Comm) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	d := seconds / c.world.speeds[c.rank]
	c.busy += d
	c.proc.Sleep(d)
}

// Send implements mpi.Comm: the sender is occupied for the CPU overhead
// plus the wire serialisation time, and the message lands in the
// destination mailbox one latency later.
func (c *Comm) Send(data []byte, dest, tag int) error {
	if dest < 0 || dest >= len(c.world.comms) {
		return fmt.Errorf("simnet: send to invalid rank %d", dest)
	}
	link := c.world.link
	cp := make([]byte, len(data))
	copy(cp, data)
	c.proc.Sleep(link.SendOverhead + link.transfer(len(data)))
	dst := c.world.comms[dest]
	m := simMessage{source: c.rank, tag: tag, data: cp}
	c.world.eng.schedule(c.world.eng.now+link.Latency, func() {
		dst.inbox = append(dst.inbox, m)
		if dst.waiting && matchesSim(m, dst.wantSource, dst.wantTag) {
			dst.waiting = false
			dst.proc.wake()
		}
	})
	return nil
}

func matchesSim(m simMessage, source, tag int) bool {
	return (source == mpi.AnySource || m.source == source) && (tag == mpi.AnyTag || m.tag == tag)
}

// waitMatch parks the process until a matching message is in the inbox
// and returns its index, or mpi.ErrClosed once the run has deadlocked.
func (c *Comm) waitMatch(source, tag int) (int, error) {
	for {
		for i, m := range c.inbox {
			if matchesSim(m, source, tag) {
				return i, nil
			}
		}
		if c.world.eng.closed {
			c.waiting = false // a late delivery must not wake it out of a later Sleep
			return 0, mpi.ErrClosed
		}
		c.waiting = true
		c.wantSource, c.wantTag = source, tag
		c.proc.recv = c // the reason, formatted if a deadlock report ever asks
		c.proc.yield(struct{}{})
	}
}

// Probe implements mpi.Comm.
func (c *Comm) Probe(source, tag int) (mpi.Status, error) {
	i, err := c.waitMatch(source, tag)
	if err != nil {
		return mpi.Status{}, err
	}
	m := c.inbox[i]
	return mpi.Status{Source: m.source, Tag: m.tag, Bytes: len(m.data)}, nil
}

// Recv implements mpi.Comm; the receiver pays the per-message CPU
// overhead.
func (c *Comm) Recv(source, tag int) ([]byte, mpi.Status, error) {
	i, err := c.waitMatch(source, tag)
	if err != nil {
		return nil, mpi.Status{}, err
	}
	m := c.inbox[i]
	c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
	c.proc.Sleep(c.world.link.RecvOverhead)
	return m.data, mpi.Status{Source: m.source, Tag: m.tag, Bytes: len(m.data)}, nil
}

// Close implements mpi.Comm; simulated communicators need no teardown
// because the run ends when the event queue drains.
func (c *Comm) Close() error { return nil }

// Resource is a FIFO-queued exclusive server in virtual time (e.g. the
// NFS server): callers are serviced one at a time in request order.
type Resource struct {
	availableAt float64
}

// Use blocks the process until the resource is free, occupies it for
// service seconds, and returns. FIFO order is inherited from the engine's
// deterministic event ordering.
func (r *Resource) Use(p *Proc, service float64) {
	start := r.availableAt
	if p.eng.now > start {
		start = p.eng.now
	}
	r.availableAt = start + service
	p.SleepUntil(r.availableAt)
}
