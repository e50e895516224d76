package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The box this benchmark runs on changes speed. Each of its virtual
// CPUs flips, several times a second, between two states in which every
// core-bound computation — a premia kernel, a farm round, a bare
// sqrt·log loop — takes either t or 1.38 t (a busy sibling hyperthread
// on the host, by the look of it), and the share of time spent in the
// slow state drifts between a few percent and nearly all of it over
// minutes. Run-to-run, that moved every as-measured time by ±15%
// (README.md has the measurements); no statistic inside a 20-second run
// can remove a phase that outlasts the run. So the harness measures the
// machine alongside the program: a calibrator process keeps one thread
// pinned to each CPU, and every few milliseconds each thread times a
// fixed piece of arithmetic. A duration the program spent computing is
// then quoted at reference speed — the speed at which that arithmetic
// takes referenceChunk — by dividing out how much slower the arithmetic
// ran over the same interval.

const (
	// calChunkIters sizes the calibrator's unit of work; each pinned
	// thread runs two chunks every calPeriod (1.5% of a CPU), and the
	// process reports once a calWindow.
	calChunkIters = 4000
	calPeriod     = 5 * time.Millisecond
	calWindow     = 50 * time.Millisecond
	// referenceChunk is how long one chunk takes at reference speed. It
	// is this box's fast state, so numbers at reference speed read like
	// numbers measured on a quiet minute.
	referenceChunk = 37e-6
)

// calChunk is the calibrator's fixed arithmetic: core-bound, no memory
// traffic, the same instruction mix whatever the inputs.
func calChunk() float64 {
	s := 0.0
	for i := 1; i <= calChunkIters; i++ {
		s += math.Sqrt(float64(i)) * math.Log(float64(i))
	}
	return s
}

// calibratorMain is the body of the calibrator process (the benchmark
// binary re-executed with -calibrator). It keeps one thread pinned to
// each CPU; every calPeriod the thread wakes, runs two chunks and keeps
// the second one's time (the first re-warms the core). Once a window the
// process prints the window's end (Unix nanoseconds) and each CPU's
// median chunk time (nanoseconds): a chunk the scheduler interrupted is
// a slow outlier the median ignores. It exits when its standard input
// closes.
func calibratorMain() {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the harness goes away
		os.Exit(0)
	}()
	cpus := allowedCPUs()
	var mu sync.Mutex
	samples := make([][]float64, len(cpus))
	for slot, cpu := range cpus {
		go func(slot, cpu int) {
			runtime.LockOSThread()
			pinThread(cpu)
			sum := 0.0
			for !math.IsNaN(sum) {
				sum += calChunk()
				begin := time.Now()
				sum += calChunk()
				d := float64(time.Since(begin))
				mu.Lock()
				samples[slot] = append(samples[slot], d)
				mu.Unlock()
				time.Sleep(calPeriod)
			}
		}(slot, cpu)
	}
	out := bufio.NewWriter(os.Stdout)
	for range time.Tick(calWindow) {
		fmt.Fprintf(out, "%d", time.Now().UnixNano())
		mu.Lock()
		for slot := range samples {
			fmt.Fprintf(out, " %.0f", median(samples[slot]))
			samples[slot] = samples[slot][:0]
		}
		mu.Unlock()
		fmt.Fprintln(out)
		if out.Flush() != nil {
			return
		}
	}
}

// calibrator is the harness's handle on the calibrator process: the
// speed samples it has reported so far.
type calibrator struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	done  chan struct{}

	mu      sync.Mutex
	times   []time.Time // window ends
	factors []float64   // mean over the CPUs of chunk time over referenceChunk: >1 is a slow machine
}

// startCalibrator re-executes this binary as the calibrator.
func startCalibrator(ctx context.Context) (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{done: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, self, "-calibrator")
	c.cmd.SysProcAttr = childSysProcAttr()
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 2 {
				continue
			}
			at, err := strconv.ParseInt(fields[0], 10, 64)
			sum, n := 0.0, 0
			for _, f := range fields[1:] {
				// A CPU whose thread never ran this window prints NaN.
				if ns, perr := strconv.ParseFloat(f, 64); perr == nil && ns > 0 {
					sum, n = sum+ns, n+1
				}
			}
			if err != nil || n == 0 {
				continue
			}
			c.mu.Lock()
			c.times = append(c.times, time.Unix(0, at))
			c.factors = append(c.factors, sum/float64(n)*1e-9/referenceChunk)
			c.mu.Unlock()
		}
		_ = c.cmd.Wait() // a killed calibrator's status says nothing
	}()
	return c, nil
}

// stop ends the calibrator process and waits for it.
func (c *calibrator) stop() {
	_ = c.stdin.Close()
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Kill()
	}
	<-c.done
}

// factor returns the machine's mean slowness over [from, to]: the mean
// of the windows that ended in the interval, or the window nearest to it
// when the interval is shorter than a window. 1 is reference speed.
func (c *calibrator) factor(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.times) == 0 {
		return 1
	}
	lo := sort.Search(len(c.times), func(i int) bool { return !c.times[i].Before(from) })
	hi := sort.Search(len(c.times), func(i int) bool { return c.times[i].After(to) })
	if hi <= lo {
		// No window ended inside: take the one that contains `to`.
		if lo >= len(c.times) {
			lo = len(c.times) - 1
		}
		return c.factors[lo]
	}
	sum := 0.0
	for _, f := range c.factors[lo:hi] {
		sum += f
	}
	return sum / float64(hi-lo)
}

// atReference converts a measured duration to reference speed. busy is
// the share of the duration the measured processes spent on a CPU: that
// share scales with the machine's slowness, the rest — timers, sleeps —
// does not.
func atReference(measured, busy, slowness float64) float64 {
	if busy > 1 {
		busy = 1
	}
	return measured * (1 - busy + busy/slowness)
}
