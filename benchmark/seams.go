package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
)

// The seams are the public places where one layer calls the next. The
// traced run wraps each with a span and changes nothing else, so the
// spans time the program's layers without a line of the program knowing.

// traceHandler wraps the server's HTTP handler: one serve.handler span
// per request, child of the operation's root.
func traceHandler(rec *recorder, root func() int, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := rec.start("serve.handler", root())
		rec.handler.Store(int64(id))
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), id)))
		rec.finish(id)
	})
}

// tracePrice wraps serve.Config.Price: one risk.price_batch span per
// micro-batch flush. The batcher prices on its own context, so the
// parent is the handler span of the operation in flight.
func tracePrice(rec *recorder, inner serve.PriceFunc, onFlush func(problems int)) serve.PriceFunc {
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		if onFlush != nil {
			onFlush(len(problems))
		}
		if rec == nil {
			return inner(ctx, problems)
		}
		parent := spanFrom(ctx)
		if parent < 0 {
			parent = int(rec.handler.Load())
		}
		id := rec.start("risk.price_batch", parent)
		defer rec.finish(id)
		return inner(withSpan(ctx, id), problems)
	}
}

// roundTracer wraps a risk.FarmBackend: one farm.round span per round,
// whoever asked for it (PriceBatch, RevalueContext under FullReval).
type roundTracer struct {
	rec   *recorder
	inner risk.FarmBackend
}

func (b roundTracer) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error) {
	id := b.rec.start("farm.round", spanFrom(ctx))
	defer b.rec.finish(id)
	return b.inner.Run(withSpan(ctx, id), tasks, opts, workers)
}

// worldBackend is risk.LocalBackend's round rebuilt from the same
// public calls (mpi.NewLocalWorld, farm.RunWorker, farm.RunMaster) with
// one change: the workers' executor is wrapped, so every task is a
// farm.execute span. risk.LocalBackend takes no executor, which is
// why the traced run cannot simply wrap it.
type worldBackend struct{ rec *recorder }

func (b worldBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, nw int) ([]farm.Result, error) {
	world := mpi.NewLocalWorld(nw + 1)
	defer world.Close()
	stopCancel := context.AfterFunc(ctx, world.Close)
	defer stopCancel()
	exec := computeTracer{rec: b.rec, parent: spanFrom(ctx)}
	wopts := opts
	wopts.LocalSpans = true
	var wg sync.WaitGroup
	errs := make([]error, nw+1)
	for r := 1; r <= nw; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = farm.RunWorker(world.Comm(rank), exec, nil, wopts)
		}(r)
	}
	results, err := farm.RunMaster(ctx, world.Comm(0), tasks, farm.LiveLoader{}, opts)
	if err != nil {
		world.Close() // unblock the workers before joining them
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	for rank, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("worker %d: %w", rank, werr)
		}
	}
	return results, nil
}

// computeTracer wraps farm.LiveExecutor: one farm.execute span per task
// (decode or rebuild the problem, price it, build the result hash).
type computeTracer struct {
	rec    *recorder
	parent int
}

func (e computeTracer) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	id := e.rec.start("farm.execute", e.parent)
	defer e.rec.finish(id)
	return farm.LiveExecutor{}.Execute(name, payload, cost, size)
}

func (e computeTracer) ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error) {
	id := e.rec.start("farm.execute", e.parent)
	defer e.rec.finish(id)
	return farm.LiveExecutor{}.ExecuteObj(name, obj, cost, size)
}

// tracedBackend is the farm backend of a replay: the production
// risk.LocalBackend when rec is nil, otherwise the same round with the
// round and compute seams wrapped.
func tracedBackend(rec *recorder) risk.FarmBackend {
	if rec == nil {
		return risk.LocalBackend{}
	}
	return roundTracer{rec: rec, inner: worldBackend{rec: rec}}
}

// rig is an in-process riskserver with the child's configuration
// (defaults but for -workers), listening on loopback, its seams wrapped
// when rec is non-nil.
type rig struct {
	rec    *recorder
	srv    *serve.Server
	http   *http.Server
	addr   string
	served chan struct{}
	// flushes and flushed count micro-batch flushes and the problems in
	// them; root is the span of the operation in flight.
	mu      sync.Mutex
	flushes int
	flushed int
	root    int
}

// rigOptions vary the one thing a section studies.
type rigOptions struct {
	disableTracing bool // serve.Config.DisableTracing: the program's own tracing
}

func newRig(rec *recorder, o rigOptions) (*rig, error) {
	g := &rig{rec: rec, served: make(chan struct{}), root: -1}
	reg := telemetry.New()
	eng := &risk.Engine{Workers: serverWorkers(), BatchSize: 16, Telemetry: reg, Backend: tracedBackend(rec)}
	cfg := serve.Config{Engine: eng, Telemetry: reg, DisableTracing: o.disableTracing}
	cfg.Price = tracePrice(rec, func(ctx context.Context, ps []*premia.Problem) ([]risk.PriceOutcome, error) {
		return eng.PriceBatch(ctx, ps)
	}, func(n int) {
		g.mu.Lock()
		g.flushes++
		g.flushed += n
		g.mu.Unlock()
	})
	g.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = g.srv.Close()
		return nil, err
	}
	g.addr = ln.Addr().String()
	g.http = &http.Server{Handler: traceHandler(rec, g.currentRoot, g.srv.Handler())}
	go func() {
		_ = g.http.Serve(ln) // returns ErrServerClosed on close
		close(g.served)
	}()
	return g, nil
}

func (g *rig) currentRoot() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.root
}

// flushCounts returns and resets the flush counters.
func (g *rig) flushCounts() (flushes, problems int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	flushes, problems = g.flushes, g.flushed
	g.flushes, g.flushed = 0, 0
	return
}

// op sends one pre-rendered request through the loopback listener and
// returns the response body. A recorded operation runs under a client.op
// root span numbered i; an unrecorded one leaves no spans.
func (g *rig) op(k *client, i int, record bool, wire []byte) ([]byte, error) {
	id := -1
	if g.rec != nil {
		g.rec.paused.Store(!record)
		g.rec.op.Store(int64(i))
		id = g.rec.start("client.op", -1)
		g.mu.Lock()
		g.root = id
		g.mu.Unlock()
	}
	status, body, err := k.do(wire, opTimeout)
	g.rec.finish(id)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	return body, err
}

func (g *rig) close() {
	_ = g.http.Close()
	<-g.served
	_ = g.srv.Close()
}
