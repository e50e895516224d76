package main

import "testing"

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
