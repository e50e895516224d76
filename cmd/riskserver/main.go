// Command riskserver runs the production pricing service: an HTTP/JSON
// front end over a standing farm session — -workers workers started by
// the first round and stopped by the drain — with dynamic
// micro-batching, a content-addressed result cache and admission
// control.
//
// Start it:
//
//	riskserver -addr :8080 -workers 8 -batch 16 -cache 65536
//
// Price an option:
//
//	curl -s localhost:8080/price -d '{"model":"BlackScholes1dim",
//	  "option":"CallEuro","method":"CF_Call",
//	  "params":{"S0":100,"r":0.05,"sigma":0.2,"K":100,"T":1}}'
//
// Price a book in one request (cached problems are answered at once,
// duplicates are priced once, and the rest go to the farm together as
// one round):
//
//	curl -s localhost:8080/batch -d '{"problems":[...]}'
//
// Risk analytics (VaR/CVaR over a scenario set; see GET /risk for the
// request shapes):
//
//	curl -s localhost:8080/risk/report -d '{"portfolio":{"name":"toy"},
//	  "scenarios":{"mode":"mc","n":256},"alphas":[0.95,0.99]}'
//
//	# streaming watch mode: one NDJSON line per round, with limit
//	# utilization graded into normal/warning/critical levels
//	curl -sN localhost:8080/risk/watch -d '{"portfolio":{"name":"toy"},
//	  "scenarios":{"mode":"mc","n":256},"limits":{"var":50},"rounds":5}'
//
// Health, metrics and the flight recorder:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics        # Prometheus text format (with exemplars)
//	curl -s localhost:8080/metrics.json   # JSON snapshot
//	curl -s localhost:8080/debug/traces   # slowest requests as span trees
//	curl -s 'localhost:8080/debug/events?level=warn'  # structured event log, NDJSON
//	curl -s localhost:8080/debug/slo      # SLO burn-rate monitor status
//	curl -s localhost:8080/debug/farm     # farm session state and per-worker fleet health
//
// With -pprof, the standard net/http/pprof profiling handlers are
// additionally mounted under /debug/pprof/.
//
// -batch is the paper's one bunching parameter: the micro-batcher
// flushes once that many problems wait (a /batch book is never split),
// and the farm ships that many tasks to a message.
//
// -transport selects where the farm workers live: "local" (the default)
// or "" prices on in-process goroutine ranks; "tcp", "unix" or "inproc"
// run a framed hub world on that mpi transport with the versioned wire
// handshake — "unix" is the recommended same-host worker-pool shape.
// Either way the workers are started once and every flush and every
// risk report is a round on the same session; a worker lost mid-round
// costs the rounds in flight, and the next round starts a new session.
//
// SIGINT/SIGTERM drains gracefully: admission stops (healthz flips to
// 503 so load balancers rotate the instance out), in-flight farm
// rounds finish, the workers get their stop message and are joined, and
// only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
)

// kernelWidth is the Monte Carlo kernel width of every pricing task
// without its own "threads" parameter: the cores the farm workers leave —
// procs shared evenly among them, at least one each — so workers all
// pricing Monte Carlo at once run no more kernel goroutines than procs. It
// is also how many tasks of one message a worker prices side by side, so
// a worker busy outside the kernel (a PDE sweep, an LSM induction) keeps
// its share busy with the message's other claims. -workers below 1
// leaves the count to the engine, and the kernel serial.
func kernelWidth(procs, workers int) int {
	if workers < 1 {
		return 1
	}
	return max(1, procs/workers)
}

// newEngine is the engine the server prices on, its farm workers where
// the transport puts them (risk.BackendFor); serve.New gives it the
// server's registry.
func newEngine(workers, batch int, transport string) (*risk.Engine, error) {
	if err := risk.CheckTransport(transport); err != nil {
		return nil, err
	}
	return &risk.Engine{Workers: workers, BatchSize: batch, Backend: risk.BackendFor(transport)}, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "address to serve HTTP on")
		workers     = flag.Int("workers", runtime.NumCPU(), "farm workers of the standing session, started once and shared by every round")
		batch       = flag.Int("batch", risk.DefaultBatchSize, "the batch size: problems waiting that flush a micro-batch, which is also tasks per farm message")
		maxDelay    = flag.Duration("maxdelay", serve.DefaultMaxDelay, "max wait for a micro-batch to fill before flushing")
		cacheSize   = flag.Int("cache", serve.DefaultCacheSize, "result cache capacity in entries (negative disables)")
		maxInflight = flag.Int("maxinflight", serve.DefaultMaxInflight, "admitted concurrent requests before shedding with 429")
		timeout     = flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request pricing deadline")
		transport   = flag.String("transport", "local", "farm worker transport: local or \"\" (in-process goroutines) or a framed mpi transport (tcp | unix | inproc)")
		drainWait   = flag.Duration("drain", 30*time.Second, "max time to drain in-flight work on shutdown")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		noTrace     = flag.Bool("notrace", false, "disable per-request distributed tracing")
	)
	flag.Parse()

	// SIGINT/SIGTERM start the cooperative drain instead of killing the
	// process mid-batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.New()
	telemetry.SetProcess(reg)
	kernel := kernelWidth(runtime.GOMAXPROCS(0), *workers)
	premia.SetKernelThreads(kernel)

	eng, err := newEngine(*workers, *batch, *transport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "riskserver: %v\n", err)
		os.Exit(2)
	}
	srv := serve.New(serve.Config{
		Engine:         eng,
		MaxDelay:       *maxDelay,
		CacheSize:      *cacheSize,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		Telemetry:      reg,
		DisableTracing: *noTrace,
	})

	handler := srv.Handler()
	if *pprofOn {
		handler = telemetry.WithPprof(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "riskserver: serving on %s (workers=%d kernel=%d batch=%d cache=%d maxinflight=%d transport=%s)\n",
		*addr, *workers, kernel, *batch, *cacheSize, *maxInflight, *transport)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "riskserver: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintln(os.Stderr, "riskserver: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "riskserver: drain: %v (forcing)\n", err)
		_ = srv.Close()
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "riskserver: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "riskserver: drained, bye")
}
