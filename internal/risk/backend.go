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
// world: one farm.Local round per call, workers sharing the engine's
// telemetry registry. The zero value is the flat farm; Groups and Chunk
// select the hierarchical one.
type LocalBackend = farm.Local

// NetBackend prices each round over a framed mpi transport: it listens
// on Addr via the named transport, asks Spawn to start the round's
// workers dialing in (separate processes in deployment, goroutines in
// tests), and masters the round over the hub. The hub runs the
// versioned handshake with every worker, so a mixed-version pool —
// mid-rolling-upgrade — negotiates each connection down to the common
// protocol subset and the round still completes with identical prices.
// Worker-side telemetry lives in whatever registries the spawned
// workers carry; their spans travel back over the wire when the
// negotiation allows it.
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
	Proto int
	// Spawn must cause `workers` workers to mpi.DialHubWith the given
	// transport and address and run farm.RunWorker until the stop
	// message. It returns a wait function joining them (may be nil).
	// Required.
	Spawn func(transport, addr string, workers int) (wait func() error, err error)
}

// Run implements FarmBackend over a hub world on the configured
// transport.
func (b *NetBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, nw int) ([]farm.Result, error) {
	if b.Spawn == nil {
		return nil, errors.New("risk: NetBackend needs a Spawn function")
	}
	hub, err := mpi.ListenHubWith(b.Addr, nw+1, mpi.WorldOptions{Transport: b.Transport, Proto: b.Proto})
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	wait, err := b.Spawn(b.Transport, hub.Addr(), nw)
	if err != nil {
		return nil, err
	}
	if err := <-accepted; err != nil {
		return nil, err
	}
	stopCancel := context.AfterFunc(ctx, func() { hub.Close() })
	defer stopCancel()
	results, err := farm.RunMaster(ctx, hub, tasks, farm.LiveLoader{}, opts)
	if err != nil {
		// Closing the hub unblocks the spawned workers before joining
		// them, so a failed round does not strand the wait.
		hub.Close()
		if wait != nil {
			_ = wait()
		}
		return nil, err
	}
	if wait != nil {
		if werr := wait(); werr != nil {
			return nil, fmt.Errorf("risk: %s worker: %w", hub.Addr(), werr)
		}
	}
	return results, nil
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
