// Command benchmark is the repository's performance record: four
// end-to-end workloads driven against a real riskserver child process
// over loopback TCP, and a separate traced run that times every layer
// from outside. See README.md in this directory.
//
//	go run ./benchmark -workload var_real -seed 7 -seconds 25   # one cell row
//	go run ./benchmark -workload var_real -trace 1              # per-layer metrics
//	go run ./benchmark                                          # all of it, as tables
//	go run ./benchmark -selfcheck 5                             # does the grid repeat?
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: every workload, then the traced run)")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured phase in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced in-process run and prints the per-layer metrics instead")
		spans     = flag.String("spans", buildDir+"/spans.json", "where the traced run writes its spans")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many runs of every workload and compare their medians cell by cell")
		calOnly   = flag.Bool("calibrator", false, "internal: run as the speed calibrator process")
	)
	flag.Parse()
	if *calOnly {
		calibratorMain()
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-spans file] [-selfcheck k]")
		os.Exit(2)
	}
	// A signal cancels ctx, which kills the child (exec.CommandContext);
	// the deferred stops then reap it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace == 1, *spans, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds int, traced bool, spans string, selfcheck int) error {
	var picked []workload
	if name == "" {
		picked = workloads
	} else {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		picked = []workload{w}
	}
	if traced {
		out, err := runTraced(ctx, picked[0], seed, seconds, spans)
		if err != nil {
			return err
		}
		return report(picked[0].name+" (traced)", out, perLayerNames())
	}
	bin, err := buildServer(ctx)
	if err != nil {
		return err
	}
	if selfcheck > 0 {
		return runSelfcheck(ctx, bin, seed, seconds, selfcheck)
	}
	for _, w := range picked {
		out, err := runWorkload(ctx, bin, w, seed, seconds)
		if err != nil {
			return err
		}
		if err := report(w.name, out, endToEndNames()); err != nil {
			return err
		}
	}
	if name == "" {
		out, err := runTraced(ctx, workloads[0], seed, seconds, spans)
		if err != nil {
			return err
		}
		return report("traced run", out, perLayerNames())
	}
	return nil
}

// report prints one run for a human (stderr: the metrics in table
// order, and every failure) and for the driver (stdout: one JSON line).
func report(title string, out *outcome, order []string) error {
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", title, out.Attempted, out.Failed)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "  FAILED", p)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, " ", n)
	}
	for _, name := range order {
		m := out.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func endToEndNames() []string {
	names := make([]string, len(endToEndUnits))
	for i, m := range endToEndUnits {
		names[i] = m.name
	}
	return names
}
