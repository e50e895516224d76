package main

import (
	"strings"
	"testing"

	"riskbench/internal/risk"
)

// TestKernelThreads pins riskserver's kernel width: the workers split
// GOMAXPROCS evenly so that, all pricing Monte Carlo at once, they never
// run more kernel goroutines than there are cores.
func TestKernelThreads(t *testing.T) {
	for _, c := range []struct{ procs, workers, want int }{
		{2, 1, 2}, // the lone worker takes the master's idle core
		{4, 1, 4},
		{4, 2, 2},
		{4, 3, 1},
		{2, 2, 1}, // the default -workers = NumCPU stays serial
		{1, 4, 1},
		{8, 0, 1}, // the engine picks the worker count: serial
	} {
		got := kernelWidth(c.procs, c.workers)
		if got != c.want {
			t.Errorf("kernelWidth(GOMAXPROCS %d, -workers %d) = %d, want %d",
				c.procs, c.workers, got, c.want)
		}
		if c.workers > 0 && c.workers*got > max(c.procs, c.workers) {
			t.Errorf("GOMAXPROCS %d, -workers %d: %d kernel goroutines a worker oversubscribe the cores",
				c.procs, c.workers, got)
		}
	}
}

// TestTransportNames pins what -transport selects: "local" and "" both
// price in process (an empty name once gave tcp goroutine workers), a
// framed name a hub world on that transport, and an unknown name is
// refused before any engine exists, with mpi's list of transports.
func TestTransportNames(t *testing.T) {
	for _, name := range []string{"local", ""} {
		eng, err := newEngine(1, 16, name)
		if err != nil {
			t.Fatalf("-transport %q: %v", name, err)
		}
		if eng.Backend != nil {
			t.Errorf("-transport %q prices on %T, want the in-process default", name, eng.Backend)
		}
	}
	eng, err := newEngine(1, 16, "unix")
	if err != nil {
		t.Fatal(err)
	}
	if nb, ok := eng.Backend.(*risk.NetBackend); !ok || nb.Transport != "unix" {
		t.Errorf("-transport unix prices on %#v, want a unix NetBackend", eng.Backend)
	}
	if _, err := newEngine(1, 16, "carrier-pigeon"); err == nil || !strings.Contains(err.Error(), "unknown transport") {
		t.Errorf("-transport carrier-pigeon: err = %v, want mpi's unknown transport", err)
	}
}
