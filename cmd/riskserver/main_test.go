package main

import "testing"

// TestKernelThreads pins riskserver's kernel width: an explicit
// -kernelthreads wins, and by default the workers split GOMAXPROCS evenly
// so that, all pricing Monte Carlo at once, they never run more kernel
// goroutines than there are cores.
func TestKernelThreads(t *testing.T) {
	for _, c := range []struct{ flag, procs, workers, want int }{
		{0, 2, 1, 2}, // the lone worker takes the master's idle core
		{0, 4, 1, 4},
		{0, 4, 2, 2},
		{0, 4, 3, 1},
		{0, 2, 2, 1}, // the default -workers = NumCPU stays serial
		{0, 1, 4, 1},
		{0, 8, 0, 1}, // the engine picks the worker count: serial
		{3, 2, 1, 3},
		{1, 8, 1, 1},
	} {
		got := kernelThreads(c.flag, c.procs, c.workers)
		if got != c.want {
			t.Errorf("kernelThreads(-kernelthreads %d, GOMAXPROCS %d, -workers %d) = %d, want %d",
				c.flag, c.procs, c.workers, got, c.want)
		}
		if c.flag == 0 && c.workers > 0 && c.workers*got > max(c.procs, c.workers) {
			t.Errorf("GOMAXPROCS %d, -workers %d: %d kernel goroutines a worker oversubscribe the cores",
				c.procs, c.workers, got)
		}
	}
}
