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

// TestHierBackendMatchesLocal runs the same revaluation through the
// default local backend and through the hierarchical root-master
// topology; the per-claim surfaces must match bit for bit — scheduling
// topology must never leak into prices.
func TestHierBackendMatchesLocal(t *testing.T) {
	pf := smallBook()
	scens := risk.SpotLadder()
	want, err := risk.Engine{Workers: 4}.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	eng := risk.Engine{Workers: 4, Backend: farm.Local{Groups: 2, Chunk: 4}}
	got, err := eng.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.Values {
		for i := range want.Values[s] {
			if got.Values[s][i] != want.Values[s][i] {
				t.Fatalf("value[%d][%d] = %.17g over hierarchy, %.17g locally", s, i, got.Values[s][i], want.Values[s][i])
			}
		}
	}
	for i := range want.Base {
		if got.Base[i] != want.Base[i] {
			t.Fatalf("base[%d] differs across backends", i)
		}
	}
}

// TestFullRevalOverHierBackend is the nested simulation live: the
// outer×inner batch scheduled by farm.RunRootMaster through sub-master
// groups, with the estimates matching the flat local run exactly.
func TestFullRevalOverHierBackend(t *testing.T) {
	pf := smallBook()
	scens, err := DefaultMarket().Generate(24, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alphas: []float64{0.9}, HorizonDays: 10}
	flat, err := FullReval(context.Background(), risk.Engine{Workers: 4}, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := FullReval(context.Background(), risk.Engine{Workers: 4, Backend: farm.Local{Groups: 2, Chunk: 2}}, pf, scens, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.PnLs {
		if flat.PnLs[i] != hier.PnLs[i] {
			t.Fatalf("P&L[%d] = %.17g over hierarchy, %.17g flat", i, hier.PnLs[i], flat.PnLs[i])
		}
	}
	if flat.Estimates[0] != hier.Estimates[0] {
		t.Fatalf("estimates differ: %+v vs %+v", hier.Estimates[0], flat.Estimates[0])
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

func TestHierBackendCancellation(t *testing.T) {
	pf := smallBook()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := risk.Engine{Workers: 4, Backend: farm.Local{Groups: 2, Chunk: 2}}
	if _, err := eng.RevalueContext(ctx, pf, risk.SpotLadder()); err == nil {
		t.Fatal("cancelled hierarchical revaluation succeeded")
	}
}

// TestBackendRunEndsOnRankFailure covers the two ways an in-process
// round used to outlive its cause, on the flat and the hierarchical
// backend alike. A rank that dies of its own error (workers under
// NFSLoad with no store) must end Run promptly with that rank's error —
// not hang the master in its receive, and not surface as the bare
// mpi.ErrClosed the shutdown causes elsewhere. And a master that fails
// before dispatching (duplicate task names) must still join every rank:
// no goroutine may outlive Run.
func TestBackendRunEndsOnRankFailure(t *testing.T) {
	tasks, err := smallBook().Tasks()
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, b risk.FarmBackend, tasks []farm.Task, opts farm.Options) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := b.Run(context.Background(), tasks, opts, 4)
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
		{"hierarchical", farm.Local{Groups: 2, Chunk: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			err := run(t, tc.backend, tasks, farm.Options{Strategy: farm.NFSLoad})
			if err == nil || !strings.Contains(err.Error(), "NFS strategy without a store") || errors.Is(err, mpi.ErrClosed) {
				t.Errorf("storeless NFS round returned %v, want the failing worker's own error", err)
			}
			dup := []farm.Task{tasks[0], tasks[0]}
			err = run(t, tc.backend, dup, farm.Options{Strategy: farm.SerializedLoad})
			if err == nil || !strings.Contains(err.Error(), "duplicate task name") {
				t.Errorf("duplicate names returned %v, want the master's validation error", err)
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
