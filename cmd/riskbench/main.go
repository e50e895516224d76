// Command riskbench reproduces the paper's evaluation tables on the
// simulated cluster, or runs a live local farm over a generated
// portfolio.
//
// Reproduce a table (time and speedup ratio per CPU count):
//
//	riskbench -table 3
//	riskbench -table 2 -maxcpus 16
//
// Run every table, like the paper's evaluation section:
//
//	riskbench -all
//
// Run a live farm (goroutine workers, real pricing) over a portfolio:
//
//	riskbench -live -portfolio toy -n 2000 -workers 8 -strategy serialized
//
// -portfolio names the book of -live and -utilization: toy or mixed of
// -n claims, regression (§4.1) or realistic (§4.3) at their own sizes.
//
// Run a VaR preset end to end over the (effort-scaled) 7931-claim
// realistic book — full revaluation and delta–gamma, with a
// cross-thread bit-identity verification pass:
//
//	riskbench -var small
//	riskbench -var large -varmethod deltagamma
//
// Simulate the nested outer×inner VaR workload on the simnet cluster
// (flat Robin-Hood sweep plus a hierarchical root-master row):
//
//	riskbench -var medium -varsim
//
// List the registered pricing methods:
//
//	riskbench -methods
//
// -transport places the -live workers: "local" (the default) or "" in
// process, "tcp", "unix" or "inproc" over a framed hub. -telemetry ADDR
// serves the process's registry at /metrics.json, /metrics,
// /debug/traces and /debug/events; -pprof adds /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"riskbench/internal/bench"
	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

func main() {
	var (
		tableN    = flag.Int("table", 0, "reproduce table 1, 2 or 3 on the simulator")
		all       = flag.Bool("all", false, "reproduce all three tables")
		maxCPUs   = flag.Int("maxcpus", 0, "truncate the table's CPU counts (0 = full sweep)")
		live      = flag.Bool("live", false, "run a live farm with real pricing instead of the simulator")
		pfName    = flag.String("portfolio", "toy", "book of -live and -utilization: toy | mixed | regression | realistic")
		n         = flag.Int("n", 1000, "size of the toy and mixed books")
		workers   = flag.Int("workers", runtime.NumCPU(), "live worker count")
		stratName = flag.String("strategy", "serialized", "communication strategy: full | nfs | serialized")
		batch     = flag.Int("batch", 1, "tasks per message batch")
		transport = flag.String("transport", "local", "live worker transport: local (in-process goroutines) or a framed mpi transport (tcp | unix | inproc)")
		varName   = flag.String("var", "", "run a VaR preset (small | medium | large) over the scaled realistic book")
		varMethod = flag.String("varmethod", "both", "VaR estimator: full | deltagamma | both")
		varSim    = flag.Bool("varsim", false, "simulate the nested outer×inner VaR workload on the simnet cluster (-var selects the preset)")
		noVerify  = flag.Bool("noverify", false, "skip the VaR cross-thread bit-identity verification pass")
		methods   = flag.Bool("methods", false, "list registered pricing methods and exit")
		util      = flag.Bool("utilization", false, "report worker utilization across CPU counts on the simulator")
		selftest  = flag.Bool("selftest", false, "run the §4.1 non-regression suite live and report per-method results")
		calibrate = flag.Bool("calibrate", false, "measure per-class costs on this machine before simulating (-table mode)")
		telAddr   = flag.String("telemetry", "", "serve metrics (Prometheus /metrics, JSON /metrics.json) and /debug/traces on this address (e.g. :9090)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -telemetry address")
	)
	flag.Parse()

	// Ctrl-C or SIGTERM cancels the run cooperatively: masters stop
	// dispatching, drain in-flight batches and shut their workers down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// reg is nil (a no-op sink) unless -telemetry is given.
	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.New()
		telemetry.SetProcess(reg)
		mux := http.NewServeMux()
		telemetry.Mount(mux, reg)
		handler := http.Handler(mux)
		if *pprofOn {
			handler = telemetry.WithPprof(handler)
		}
		go func() {
			if err := http.ListenAndServe(*telAddr, handler); err != nil {
				fmt.Fprintf(os.Stderr, "riskbench: telemetry server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics.json (/metrics, /debug/traces, /debug/events)\n", *telAddr)
	} else if *pprofOn {
		fatalf("-pprof needs -telemetry <addr> to serve on")
	}

	switch {
	case *selftest:
		runSelfTest(ctx, *workers, reg)
	case *util:
		runUtilization(ctx, *pfName, *n, *stratName, *batch)
	case *methods:
		for _, m := range premia.Methods() {
			models, options := premia.Compatibles(m)
			fmt.Printf("%-34s models=%v options=%v\n", m, models, options)
		}
	case *all:
		for _, spec := range []bench.TableSpec{bench.TableI(), bench.TableII(), bench.TableIII()} {
			spec.MaxCPUs = *maxCPUs
			runTable(ctx, spec, *calibrate, reg)
		}
	case *tableN != 0:
		var spec bench.TableSpec
		switch *tableN {
		case 1:
			spec = bench.TableI()
		case 2:
			spec = bench.TableII()
		case 3:
			spec = bench.TableIII()
		default:
			fatalf("unknown table %d (want 1, 2 or 3)", *tableN)
		}
		spec.MaxCPUs = *maxCPUs
		runTable(ctx, spec, *calibrate, reg)
	case *varSim:
		name := *varName
		if name == "" {
			name = "small"
		}
		runVarSim(ctx, name, *batch)
	case *varName != "":
		runVar(ctx, *varName, *varMethod, *workers, !*noVerify, reg)
	case *live:
		runLive(ctx, *pfName, *n, *workers, *stratName, *transport, *batch, reg)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "riskbench: "+format+"\n", args...)
	os.Exit(1)
}

func runTable(ctx context.Context, spec bench.TableSpec, calibrate bool, reg *telemetry.Registry) {
	if calibrate {
		fmt.Fprintln(os.Stderr, "calibrating per-class costs on this machine...")
		if err := spec.Portfolio.CalibrateCosts(0.01); err != nil {
			fatalf("calibrate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "calibrated total work: %.1f s\n", spec.Portfolio.TotalCost())
	}
	start := time.Now()
	tbl, err := bench.RunTableContext(ctx, spec, reg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(tbl.Format())
	fmt.Printf("(simulated on %d claims in %v wall time)\n\n", spec.Portfolio.Size(), time.Since(start).Round(time.Millisecond))
}

// buildPortfolio builds the named book (portfolio.ByName) or exits.
func buildPortfolio(name string, n int) *portfolio.Portfolio {
	pf, err := portfolio.ByName(name, n)
	if err != nil {
		fatalf("%v", err)
	}
	return pf
}

// runSelfTest is the live counterpart of the paper's §4.1 non-regression
// runs: every registered pricing problem is farmed over local workers,
// and per-method counts, timings and sanity checks are reported.
func runSelfTest(ctx context.Context, workers int, reg *telemetry.Registry) {
	pf := portfolio.Regression()
	tasks, err := pf.Tasks()
	if err != nil {
		fatalf("%v", err)
	}
	opts := farm.Options{Strategy: farm.SerializedLoad, Telemetry: reg}
	ctx, root := reg.Start(ctx, "bench.run", true)
	start := time.Now()
	results, err := farm.Local{}.Run(ctx, tasks, opts, workers)
	if err != nil {
		fatalf("master: %v", err)
	}
	root.End()
	elapsed := time.Since(start)

	type stat struct{ n, bad int }
	perMethod := map[string]*stat{}
	for i, r := range results {
		m := pf.Items[i].Problem.Method
		s := perMethod[m]
		if s == nil {
			s = &stat{}
			perMethod[m] = s
		}
		s.n++
		p, err := farm.AsPriced(r)
		if r.Err != nil || err != nil || p.Result.Price != p.Result.Price /* NaN */ || p.Result.Price < -1e-9 {
			s.bad++
		}
	}
	fmt.Printf("non-regression suite: %d problems in %v on %d workers\n\n",
		len(results), elapsed.Round(time.Millisecond), workers)
	fmt.Printf("%-34s%8s%8s\n", "method", "tests", "failed")
	failed := 0
	for _, m := range premia.Methods() {
		s := perMethod[m]
		if s == nil {
			continue
		}
		fmt.Printf("%-34s%8d%8d\n", m, s.n, s.bad)
		failed += s.bad
	}
	if failed > 0 {
		fatalf("%d tests failed", failed)
	}
	fmt.Println("\nall tests passed")
}

func runUtilization(ctx context.Context, pfName string, n int, stratName string, batch int) {
	strat, err := farm.ParseStrategy(stratName)
	if err != nil {
		fatalf("%v", err)
	}
	if strat == farm.NFSLoad {
		fatalf("utilization mode does not support the NFS strategy")
	}
	pf := buildPortfolio(pfName, n)
	tasks, err := pf.Tasks()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("worker utilization, portfolio %s (%d claims), %s strategy, batch %d\n",
		pf.Name, pf.Size(), strat, batch)
	fmt.Printf("%8s %12s %14s %14s\n", "CPUs", "Time (s)", "mean util", "master busy")
	for _, cpus := range []int{2, 4, 8, 16, 32, 64, 128} {
		rc := bench.RunConfig{Tasks: tasks, CPUs: cpus, Strategy: strat, BatchSize: batch}
		stats, err := bench.RunWithStats(ctx, rc)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%8d %12.3f %13.1f%% %13.3fs\n",
			cpus, stats.Makespan, 100*stats.MeanUtilization, stats.MasterBusy)
	}
}

func runLive(ctx context.Context, pfName string, n, workers int, stratName, transport string, batch int, reg *telemetry.Registry) {
	strat, err := farm.ParseStrategy(stratName)
	if err != nil {
		fatalf("%v", err)
	}
	// A framed transport's goroutine workers dial through the real wire;
	// "local" shares mailboxes and, for nfs, the store.
	if err := risk.CheckTransport(transport); err != nil {
		fatalf("%v", err)
	}
	backend, shape := risk.BackendFor(transport), transport
	if backend != nil && strat == farm.NFSLoad {
		fatalf("the nfs strategy needs -transport local: framed workers carry no store")
	}
	if pfName == "realistic" {
		fmt.Fprintln(os.Stderr, "note: live realistic portfolio uses the paper's full Monte Carlo sizes; this takes hours")
	}
	pf := buildPortfolio(pfName, n)
	tasks, err := pf.Tasks()
	if err != nil {
		fatalf("%v", err)
	}
	if backend == nil {
		var store farm.Store
		if strat == farm.NFSLoad {
			ms := farm.MemStore{}
			for _, t := range tasks {
				ms[t.Name] = t.Data
			}
			store = ms
		}
		backend, shape = farm.Local{Store: store}, "local"
	}
	opts := farm.Options{Strategy: strat, BatchSize: batch, Telemetry: reg}
	ctx, root := reg.Start(ctx, "bench.run", true)
	start := time.Now()
	results, err := backend.Run(ctx, tasks, opts, workers)
	if err != nil {
		fatalf("master: %v", err)
	}
	root.End()
	elapsed := time.Since(start)
	sum := 0.0
	for _, r := range results {
		if p, err := farm.AsPriced(r); err == nil {
			sum += p.Result.Price
		}
	}
	fmt.Printf("portfolio %s: priced %d claims in %v with %d %s workers (%s strategy, batch %d)\n",
		pf.Name, len(results), elapsed.Round(time.Millisecond), workers, shape, strat, batch)
	fmt.Printf("aggregate portfolio value: %.4f\n", sum)
}
