package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes: the riskserver
// binary and the traced run's span file. It is relative to the working
// directory, which must be the root of a checkout.
const buildDir = ".bench_build"

// buildServer compiles cmd/riskserver into buildDir and returns the
// binary's path. It runs before any timing starts; with a warm build
// cache it is a staleness check.
func buildServer(ctx context.Context) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "riskserver", "main.go")); err != nil {
		return "", fmt.Errorf("not at the root of a riskbench checkout: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "riskserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/riskserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/riskserver: %w\n%s", err, out)
	}
	return bin, nil
}

// serverWorkers is the child's -workers value: the paper's n CPUs =
// 1 master + n−1 workers, capped at 3. The core left free absorbs the
// master, HTTP, GC and this generator; giving the workers every core
// made the compute-bound workload swing ±15% run to run.
func serverWorkers() int {
	w := runtime.NumCPU() - 1
	if w < 1 {
		w = 1
	}
	if w > 3 {
		w = 3
	}
	return w
}

// freePort asks the kernel for an unused loopback port. The harness
// picks the port (not a fixed one) so two checkouts can be measured on
// one box.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// child is one running riskserver process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// startChild spawns riskserver on a free loopback port with every flag
// but -addr and -workers at its default, and returns once /healthz
// answers 200. The caller must stop it.
func startChild(ctx context.Context, bin string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, "-addr", c.addr, "-workers", strconv.Itoa(serverWorkers()))
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = childSysProcAttr()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child says nothing
		close(c.exited)
	}()
	if err := c.waitReady(ctx); err != nil {
		return nil, c.failure(err)
	}
	return c, nil
}

// waitReady polls /healthz every millisecond: a coarser poll would
// quantise setup_s to its period.
func (c *child) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	probe := []byte("GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return errors.New("riskserver exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		k := &client{addr: c.addr}
		status, _, err := k.do(probe, time.Second)
		k.close()
		if err == nil && status == 200 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("riskserver not ready after 20s")
}

// stop kills the child and waits until it has been reaped. It is safe
// to call more than once.
func (c *child) stop() {
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Kill() // already-exited is fine
	}
	<-c.exited
}

// failure stops the child and decorates err with its captured stderr.
func (c *child) failure(err error) error {
	c.stop()
	return fmt.Errorf("%w\nriskserver stderr:\n%s", err, strings.TrimSpace(c.stderr.String()))
}

// cpuSeconds returns the CPU time the child has used so far.
func (c *child) cpuSeconds() float64 {
	return processCPUSeconds(c.cmd.Process.Pid)
}
