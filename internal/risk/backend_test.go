package risk

import (
	"context"
	"errors"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// TestPriceBatchTCPBackend prices a batch over NetBackend on tcp with a
// FRESH registry per worker and checks (a) the prices match the local
// backend bit-for-bit and (b) the master reassembles one trace whose
// worker-side farm.compute spans parent onto its farm.task spans — the
// spans could only have arrived over the wire.
func TestPriceBatchTCPBackend(t *testing.T) {
	reg := telemetry.New()
	e := Engine{
		Workers:   2,
		BatchSize: 2,
		Telemetry: reg,
		Backend:   &NetBackend{Transport: "tcp", Spawn: GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, 0)},
	}
	probs := []*premia.Problem{callProblem(90), callProblem(100), callProblem(110)}
	root := reg.StartTrace("test.request")
	ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
	out, err := e.PriceBatch(ctx, probs)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	local := Engine{Workers: 2, BatchSize: 2}
	want, err := local.PriceBatch(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probs {
		if out[i].Err != nil {
			t.Fatalf("problem %d: %v", i, out[i].Err)
		}
		if out[i].Result.Price != want[i].Result.Price {
			t.Errorf("problem %d: TCP price %v, local %v", i, out[i].Result.Price, want[i].Result.Price)
		}
	}

	traces := reg.SlowestTraces(0)
	if len(traces) != 1 {
		t.Fatalf("master retains %d traces, want 1", len(traces))
	}
	tr := traces[0]
	byID := make(map[uint64]telemetry.SpanRecord, len(tr.Spans))
	count := map[string]int{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
		count[s.Name]++
	}
	if count["farm.compute"] != len(probs) || count["farm.task"] != len(probs) {
		t.Fatalf("span counts %v, want %d farm.task and %d farm.compute", count, len(probs), len(probs))
	}
	for _, s := range tr.Spans {
		if s.Name != "farm.compute" {
			continue
		}
		parent, ok := byID[s.ParentID]
		if !ok || parent.Name != "farm.task" {
			t.Fatalf("farm.compute parent = %+v, want a farm.task span", parent)
		}
	}
	chain := []string{"farm.run", "risk.price_batch", "test.request"}
	span, _ := findSpan(tr, "farm.run")
	for _, wantParent := range chain[1:] {
		parent, ok := byID[span.ParentID]
		if !ok || parent.Name != wantParent {
			t.Fatalf("%s parent = %+v, want %s", span.Name, parent, wantParent)
		}
		span = parent
	}
}

// TestTCPBackendNeedsSpawn checks the configuration error.
func TestTCPBackendNeedsSpawn(t *testing.T) {
	e := Engine{Backend: &NetBackend{Transport: "tcp"}}
	_, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(100)})
	if err == nil {
		t.Fatal("NetBackend without Spawn priced a batch")
	}
}

// TestPriceBatchTCPBackendCancelled checks that cancellation surfaces
// context.Canceled through the TCP backend without hanging.
func TestPriceBatchTCPBackendCancelled(t *testing.T) {
	e := Engine{
		Workers: 2,
		Backend: &NetBackend{Transport: "tcp", Spawn: GoNetWorkers(nil, 0)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.PriceBatch(ctx, []*premia.Problem{callProblem(90), callProblem(100)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TCP batch returned %v, want context.Canceled", err)
	}
}

// TestNetWorkerDeathFailsFast: a net worker that takes its batch —
// descriptor and payload — and drops its connection used to leave the
// master blocked forever on results that could never come. The hub now
// tells the master's receive which rank it lost, on every transport.
func TestNetWorkerDeathFailsFast(t *testing.T) {
	for _, transport := range []string{"inproc", "unix", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			dying := func(transport, addr string, workers int) (func() error, error) {
				c, err := mpi.DialHubWith(addr, mpi.WorldOptions{Transport: transport})
				if err != nil {
					return nil, err
				}
				go func() {
					defer c.Close()
					for _, tag := range []int{farm.TagTask, farm.TagPayload} {
						if _, _, err := c.Recv(0, tag); err != nil {
							return
						}
					}
				}()
				return nil, nil
			}
			e := Engine{Workers: 1, Backend: &NetBackend{Transport: transport, Spawn: dying}}
			done := make(chan error, 1)
			go func() {
				_, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(100)})
				done <- err
			}()
			select {
			case err := <-done:
				var lost *mpi.LostError
				if !errors.As(err, &lost) || lost.Rank != 1 {
					t.Fatalf("round over a dead worker returned %v, want a LostError naming rank 1", err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("master still blocked 3 s after its only worker died")
			}
		})
	}
}

// findSpan returns the first span of tr with the given name.
func findSpan(tr telemetry.Trace, name string) (telemetry.SpanRecord, bool) {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.SpanRecord{}, false
}
