package risk

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/telemetry"
)

// FarmBackend is the seam between the engine and its worker pool: Run
// farms one round of tasks over `workers` workers and returns the
// results. The engine threads its context (including any distributed
// trace riding it) straight through, so worker-side spans reassemble on
// the master regardless of where the workers live. Run must honour ctx
// cancellation; it returns the transport's raw error and lets the
// caller wrap it.
type FarmBackend interface {
	Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error)
}

// LocalBackend, the engine default, prices on an in-process goroutine
// world, workers sharing the engine's telemetry registry: one farm.Local
// session, opened per round by Run or once by an engine that stands
// (Engine.Stand).
type LocalBackend = farm.Local

// NetBackend prices over a framed mpi transport: it listens on Addr via
// the named transport, asks Spawn to start the workers dialing in
// (separate processes in deployment, goroutines in tests), and masters
// rounds over the hub — one round per listen under Run, any number under
// the session Open returns. The hub runs the versioned handshake with
// every worker, so a mixed-version pool — mid-rolling-upgrade —
// negotiates each connection down to the common protocol subset and the
// rounds still complete with identical prices. Worker-side telemetry
// lives in whatever registries the spawned workers carry; their spans
// travel back over the wire when the negotiation allows it.
type NetBackend struct {
	// Transport names the mpi transport: "tcp" (the default,
	// cross-host), "unix" (same-host worker pools over unix-domain
	// sockets) or "inproc" (net.Pipe worlds, the full wire path with no
	// OS sockets).
	Transport string
	// Addr is the listen address in the transport's own format; empty
	// selects a transport-chosen ephemeral address (127.0.0.1:0 for
	// tcp, a fresh temp-dir socket path for unix).
	Addr string
	// Proto pins the hub's wire-protocol version (mpi.ProtoV1 or
	// mpi.ProtoV2); 0 speaks the latest. Compatibility tests pin
	// adjacent versions; deployments leave it alone.
	//lint:allow testonly the compatibility matrix pins a v1 or v2 master with it
	Proto int
	// Spawn must cause `workers` workers to mpi.DialHubWith the given
	// transport and address and run farm.RunWorker until the stop
	// message. It returns a wait function joining them (may be nil).
	// Required.
	Spawn func(transport, addr string, workers int) (wait func() error, err error)
}

// Open listens, spawns nw workers, runs the handshake with each and
// returns the session mastering them over the hub. opts.Strategy must be
// the one the spawned workers serve.
//
//lint:allow ctxflow the accept is bounded by Spawn's dial; the session's rounds bring their own contexts to Session.Run
func (b *NetBackend) Open(opts farm.Options, nw int) (*farm.Session, error) {
	if b.Spawn == nil {
		return nil, errors.New("risk: NetBackend needs a Spawn function")
	}
	hub, err := mpi.ListenHubWith(b.Addr, nw+1, mpi.WorldOptions{Transport: b.Transport, Proto: b.Proto})
	if err != nil {
		return nil, err
	}
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	wait, err := b.Spawn(b.Transport, hub.Addr(), nw)
	if err == nil {
		err = <-accepted
	}
	if err != nil {
		hub.Close() // also ends an accept still waiting
		return nil, err
	}
	addr := hub.Addr()
	return farm.Open(hub, opts, func() error {
		if wait == nil {
			return nil
		}
		if werr := wait(); werr != nil {
			return fmt.Errorf("risk: %s worker: %w", addr, werr)
		}
		return nil
	})
}

// Run implements FarmBackend as a one-shot session: open, one round,
// close.
func (b *NetBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, nw int) ([]farm.Result, error) {
	s, err := b.Open(opts, nw)
	if err != nil {
		return nil, err
	}
	return s.RunOnce(ctx, tasks, opts)
}

// sessionOpener is a backend whose workers can outlive a round:
// farm.Local and *NetBackend.
type sessionOpener interface {
	Open(opts farm.Options, workers int) (*farm.Session, error)
}

var (
	_ sessionOpener = LocalBackend{}
	_ sessionOpener = (*NetBackend)(nil)
)

// standing is the FarmBackend of an engine that keeps its workers: one
// farm.Session shared by every round, concurrent ones included. The
// first round opens it; a round that finds it failed — a worker lost, a
// rank dead — closes it and opens another, so a failure costs the rounds
// that were in flight and nothing after them.
type standing struct {
	open func() (*farm.Session, error)

	mu     sync.Mutex
	sess   *farm.Session
	closed bool
}

// session returns the live session, opening one when there is none or
// the last one has failed.
func (b *standing) session() (*farm.Session, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, mpi.ErrClosed
	}
	if b.sess != nil && b.sess.Err() != nil {
		_ = b.sess.Close() // its rounds have already reported the failure
		b.sess = nil
	}
	if b.sess == nil {
		sess, err := b.open()
		if err != nil {
			return nil, err
		}
		b.sess = sess
	}
	return b.sess, nil
}

// Run implements FarmBackend on the standing session, which was sized
// when the engine stood: the round's own worker count is not used.
func (b *standing) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, _ int) ([]farm.Result, error) {
	sess, err := b.session()
	if err != nil {
		return nil, err
	}
	return sess.Run(ctx, tasks, opts)
}

// Close stops the workers; rounds after it get mpi.ErrClosed.
func (b *standing) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if b.sess == nil {
		return nil
	}
	sess := b.sess
	b.sess = nil
	return sess.Close()
}

// Stand gives the engine standing workers: its backend — the default, a
// farm.Local or a *NetBackend — is replaced by one session of e.Workers
// workers that every later round of this engine, and of every copy taken
// after the call, shares, and stop closes it. The engine's Telemetry and
// Workers must be final before the call. A backend that can only Run (a
// test's or a tracer's wrapper) is left as it is, one world per round,
// and stop does nothing.
func (e *Engine) Stand() (stop func() error) {
	opener, ok := e.backend().(sessionOpener)
	if !ok {
		return func() error { return nil }
	}
	opts, workers := e.farmOptions(e.batch()), e.workers()
	b := &standing{open: func() (*farm.Session, error) { return opener.Open(opts, workers) }}
	e.Backend = b
	return b.Close
}

// GoNetWorkers returns a NetBackend Spawn function running each worker
// as a goroutine of this process with its own Comm over the real wire —
// the test and single-machine shape. newRegistry, when non-nil,
// supplies each worker's telemetry registry (a fresh registry per
// worker proves spans travel by wire rather than by shared memory).
// proto pins the workers' wire-protocol version; 0 speaks the latest.
//
// The spawned workers deliberately take no context: worker shutdown is
// wire-driven — RunWorker returns on the master's stop message or when
// the hub closes the connection — and the returned wait function is
// the join point the backend already owns.
//
//lint:allow ctxflow worker shutdown is wire-driven (stop frames / hub close), not context-driven
func GoNetWorkers(newRegistry func(worker int) *telemetry.Registry, proto int) func(transport, addr string, workers int) (func() error, error) {
	return func(transport, addr string, workers int) (func() error, error) {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			c, err := mpi.DialHubWith(addr, mpi.WorldOptions{Transport: transport, Proto: proto})
			if err != nil {
				return nil, err
			}
			var reg *telemetry.Registry
			if newRegistry != nil {
				reg = newRegistry(i)
			}
			wg.Add(1)
			go func(i int, c mpi.Comm, reg *telemetry.Registry) {
				defer wg.Done()
				defer c.Close()
				errs[i] = farm.RunWorker(c, farm.LiveExecutor{}, nil,
					farm.Options{Strategy: farm.SerializedLoad, Telemetry: reg})
			}(i, c, reg)
		}
		return func() error {
			wg.Wait()
			return errors.Join(errs...)
		}, nil
	}
}
