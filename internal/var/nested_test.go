package varisk

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

func TestSimTasksShape(t *testing.T) {
	pf := smallBook()
	tasks, err := SimTasks(pf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3*pf.Size() {
		t.Fatalf("%d tasks, want %d", len(tasks), 3*pf.Size())
	}
	if !strings.HasPrefix(tasks[0].Name, "o00001/") || !strings.HasPrefix(tasks[2*pf.Size()].Name, "o00003/") {
		t.Fatalf("task names %q, %q", tasks[0].Name, tasks[2*pf.Size()].Name)
	}
	// Payload bytes are shared across outer copies: one serialization
	// pass builds the million-task batch.
	if &tasks[0].Data[0] != &tasks[pf.Size()].Data[0] {
		t.Error("outer copies do not share payload bytes")
	}
	if tasks[0].Cost != tasks[pf.Size()].Cost {
		t.Error("outer copies disagree on cost")
	}
	if _, err := SimTasks(pf, 0); err == nil {
		t.Error("zero outer scenarios accepted")
	}
}

// TestFullRevalOverNetBackend prices the VaR batch over the framed
// in-process transport — the same wire path as a real worker fleet.
func TestFullRevalOverNetBackend(t *testing.T) {
	pf := smallBook()
	scens, err := DefaultMarket().Generate(12, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.9}, HorizonDays: 10}
	flat, err := FullReval(context.Background(), risk.Engine{Workers: 2}, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := risk.Engine{
		Workers: 2,
		Backend: &risk.NetBackend{
			Transport: "inproc",
			Spawn:     risk.GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, 0),
		},
	}
	net, err := FullReval(context.Background(), eng, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.PnLs {
		if flat.PnLs[i] != net.PnLs[i] {
			t.Fatalf("P&L[%d] differs over the net backend", i)
		}
	}
}

// TestBackendRunEndsOnRankFailure covers the two ways an in-process
// round used to outlive its cause. A rank that dies of its own error (workers under
// NFSLoad with no store) must end Run promptly with that rank's error —
// not hang the master in its receive, and not surface as the bare
// mpi.ErrClosed the shutdown causes elsewhere. And a master that fails
// before dispatching (its context already cancelled) must still join
// every rank: no goroutine may outlive Run.
func TestBackendRunEndsOnRankFailure(t *testing.T) {
	tasks, err := smallBook().Tasks()
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, ctx context.Context, b risk.FarmBackend, tasks []farm.Task, opts farm.Options) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := b.Run(ctx, tasks, opts, 4)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("Run hung on a failed rank")
			return nil
		}
	}
	for _, tc := range []struct {
		name    string
		backend risk.FarmBackend
	}{
		{"flat", risk.LocalBackend{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			err := run(t, context.Background(), tc.backend, tasks, farm.Options{Strategy: farm.NFSLoad})
			if err == nil || !strings.Contains(err.Error(), "NFS strategy without a store") || errors.Is(err, mpi.ErrClosed) {
				t.Errorf("storeless NFS round returned %v, want the failing worker's own error", err)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			err = run(t, cancelled, tc.backend, tasks, farm.Options{Strategy: farm.SerializedLoad})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("a round on a cancelled context returned %v, want context.Canceled", err)
			}
			// Run has returned, so every rank must already be gone; the
			// short poll only covers the helper goroutine's own exit.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after the erroring runs, %d before: ranks outlived Run", n, baseline)
			}
		})
	}
}
