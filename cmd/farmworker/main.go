// Command farmworker runs a live distributed farm, one process per rank
// — the deployment shape of the paper's cluster runs, with the hub
// replacing mpirun.
//
// Start the master (it waits for size-1 workers, then farms the chosen
// portfolio):
//
//	farmworker -listen :7777 -size 5 -portfolio toy -n 2000
//
// -portfolio names the book: toy or mixed of -n claims, regression
// (§4.1) or realistic (§4.3) at their own sizes. Workers price whatever
// registered problem arrives, so the master farms any of the four.
//
// Start each worker (possibly on other machines):
//
//	farmworker -connect master:7777
//
// -transport selects the wire (tcp by default; unix for same-host
// worker pools, e.g. -transport unix -listen /tmp/farm.sock). Every
// connection runs the versioned handshake, so a fleet mixing old and
// new farmworker binaries negotiates each link down to the common
// protocol subset — rolling upgrades never stop the farm. -proto pins
// an older wire protocol for staging such upgrades.
//
// -telemetry ADDR serves the process's registry at /metrics.json,
// /metrics, /debug/traces and /debug/events.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/portfolio"
	"riskbench/internal/telemetry"
)

func main() {
	var (
		listen    = flag.String("listen", "", "master mode: address to listen on")
		size      = flag.Int("size", 2, "master mode: world size (master + workers)")
		connect   = flag.String("connect", "", "worker mode: master address to dial")
		pfName    = flag.String("portfolio", "toy", "master mode: toy | mixed | regression | realistic")
		n         = flag.Int("n", 1000, "master mode: size of the toy and mixed books")
		stratName = flag.String("strategy", "serialized", "full | serialized (NFS needs a real shared mount)")
		batch     = flag.Int("batch", 1, "tasks per message batch")
		transport = flag.String("transport", "tcp", "mpi transport the world runs on (tcp | unix | inproc)")
		proto     = flag.Int("proto", 0, "pin the wire-protocol version (0 = latest) for staged rolling upgrades")
		telAddr   = flag.String("telemetry", "", "serve metrics (Prometheus /metrics, JSON /metrics.json) and /debug/traces on this address (e.g. :9090)")
	)
	flag.Parse()
	if _, err := mpi.LookupTransport(*transport); err != nil {
		fmt.Fprintf(os.Stderr, "farmworker: %v\n", err)
		os.Exit(2)
	}
	wopts := mpi.WorldOptions{Transport: *transport, Proto: *proto}

	// SIGINT and SIGTERM (what orchestrators send first) both trigger the
	// cooperative drain: masters stop dispatching and workers finish the
	// batch in hand before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.New()
		telemetry.SetProcess(reg)
		mux := http.NewServeMux()
		telemetry.Mount(mux, reg)
		go func() {
			if err := http.ListenAndServe(*telAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "farmworker: telemetry server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics.json (/metrics, /debug/traces, /debug/events)\n", *telAddr)
	}

	switch {
	case *connect != "":
		runWorker(*connect, wopts, reg)
	case *listen != "":
		runMaster(ctx, *listen, *size, *pfName, *n, *stratName, *batch, wopts, reg)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "farmworker: "+format+"\n", args...)
	os.Exit(1)
}

func runWorker(addr string, wopts mpi.WorldOptions, reg *telemetry.Registry) {
	// Workers always carry a registry, even without -telemetry: a traced
	// batch from the master needs worker-side spans to exist before they
	// can ship back for reassembly.
	if reg == nil {
		reg = telemetry.New()
	}
	c, err := mpi.DialHubWith(addr, wopts)
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	fmt.Printf("joined world of %d as rank %d\n", c.Size(), c.Rank())
	// The strategy only matters to the master protocol-wise; workers infer
	// payload presence from it, so it travels out of band: the worker uses
	// the same default as the master unless overridden by the descriptor
	// exchange. Full and serialized load share the worker code path.
	if err := farm.RunWorker(c, farm.LiveExecutor{}, farm.FileStore{}, farm.Options{Strategy: farm.SerializedLoad, Telemetry: reg}); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("worker done")
}

func runMaster(ctx context.Context, addr string, size int, pfName string, n int, stratName string, batch int, wopts mpi.WorldOptions, reg *telemetry.Registry) {
	strat, err := farm.ParseStrategy(stratName)
	if err != nil || strat == farm.NFSLoad {
		fatalf("unsupported strategy %q for hub mode", stratName)
	}
	pf, err := portfolio.ByName(pfName, n)
	if err != nil {
		fatalf("%v", err)
	}
	tasks, err := pf.Tasks()
	if err != nil {
		fatalf("%v", err)
	}
	hub, err := mpi.ListenHubWith(addr, size, wopts)
	if err != nil {
		fatalf("%v", err)
	}
	defer hub.Close()
	fmt.Printf("listening on %s for %d workers...\n", hub.Addr(), size-1)
	if err := hub.WaitWorkers(); err != nil {
		fatalf("%v", err)
	}
	ctx, root := reg.Start(ctx, "bench.run", true)
	start := time.Now()
	results, err := farm.RunMaster(ctx, hub, tasks, farm.LiveLoader{}, farm.Options{Strategy: strat, BatchSize: batch, Telemetry: reg})
	if err != nil {
		fatalf("master: %v", err)
	}
	root.End()
	sum := 0.0
	for _, r := range results {
		if p, err := farm.AsPriced(r); err == nil {
			sum += p.Result.Price
		}
	}
	fmt.Printf("priced %d claims in %v over %d %s workers; aggregate value %.4f\n",
		len(results), time.Since(start).Round(time.Millisecond), size-1, wopts.Transport, sum)
}
