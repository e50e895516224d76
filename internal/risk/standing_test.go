package risk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// standingBackends are the backends an engine can stand on.
func standingBackends() map[string]FarmBackend {
	return map[string]FarmBackend{
		"default":      nil,
		"hierarchical": farm.Local{Groups: 2, Chunk: 3},
		"inproc":       &NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)},
		"unix":         &NetBackend{Transport: "unix", Spawn: GoNetWorkers(nil, 0)},
	}
}

// TestStandingEngineConcurrentRounds: an engine that stands prices
// concurrent batches and a revaluation over one session, each answer
// bit-equal to what the per-round engine gives, on every backend that
// can be opened.
func TestStandingEngineConcurrentRounds(t *testing.T) {
	pf := portfolio.Toy(12)
	scens := SpotLadder()[:3]
	for name, backend := range standingBackends() {
		t.Run(name, func(t *testing.T) {
			e := Engine{Workers: 3, BatchSize: 4, Backend: backend}
			stop := e.Stand()
			const callers = 6
			outs := make([][]PriceOutcome, callers)
			errs := make([]error, callers)
			problems := func(caller int) []*premia.Problem {
				ps := make([]*premia.Problem, 3+7*caller)
				for i := range ps {
					ps[i] = mcProblem(uint64(1000*caller + i))
				}
				return ps
			}
			var wg sync.WaitGroup
			for caller := 0; caller < callers; caller++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[caller], errs[caller] = e.PriceBatch(context.Background(), problems(caller))
				}()
			}
			val, verr := e.Revalue(pf, scens)
			wg.Wait()
			if err := stop(); err != nil {
				t.Fatalf("stop: %v", err)
			}
			if _, err := e.PriceBatch(context.Background(), problems(0)); !errors.Is(err, mpi.ErrClosed) {
				t.Fatalf("a round after stop returned %v, want mpi.ErrClosed", err)
			}
			once := Engine{Workers: 3, BatchSize: 4}
			for caller := 0; caller < callers; caller++ {
				if errs[caller] != nil {
					t.Fatalf("caller %d: %v", caller, errs[caller])
				}
				want, err := once.PriceBatch(context.Background(), problems(caller))
				if err != nil {
					t.Fatal(err)
				}
				if len(outs[caller]) != len(want) {
					t.Fatalf("caller %d: %d outcomes, want %d", caller, len(outs[caller]), len(want))
				}
				for i := range want {
					if got := outs[caller][i]; got.Err != nil || math.Float64bits(got.Result.Price) != math.Float64bits(want[i].Result.Price) {
						t.Errorf("caller %d problem %d: standing %v (err %v), per-round %v", caller, i, got.Result.Price, got.Err, want[i].Result.Price)
					}
				}
			}
			if verr != nil {
				t.Fatalf("revalue: %v", verr)
			}
			wantVal, err := once.Revalue(pf, scens)
			if err != nil {
				t.Fatal(err)
			}
			for s := range scens {
				for i := range pf.Items {
					if math.Float64bits(val.Values[s][i]) != math.Float64bits(wantVal.Values[s][i]) {
						t.Errorf("scenario %d claim %d: standing %v, per-round %v", s, i, val.Values[s][i], wantVal.Values[s][i])
					}
				}
			}
		})
	}
}

// TestStandLeavesWrappersPerRound: a backend that only has Run cannot be
// opened; Stand leaves it alone and every round still builds its world.
func TestStandLeavesWrappersPerRound(t *testing.T) {
	rec := &recordingBackend{}
	e := Engine{Workers: 2, Backend: rec}
	stop := e.Stand()
	if e.Backend != FarmBackend(rec) {
		t.Fatalf("Stand replaced a backend it cannot open with %T", e.Backend)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(100 + float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.tasks) != 2 {
		t.Fatalf("wrapper saw %d tasks, want 2", len(rec.tasks))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(90)}); err != nil {
		t.Fatalf("a per-round backend after stop: %v", err)
	}
}

// TestNetWorkerDeathReopens is TestNetWorkerDeathFailsFast on a standing
// session: the only worker dies holding one round's batch while a second
// round waits behind it. Both fail at once with the rank-attributed
// LostError — and that is all the death costs: the next PriceBatch on
// the same engine opens a new session and prices bit-equal to the
// fault-free run.
func TestNetWorkerDeathReopens(t *testing.T) {
	for _, transport := range []string{"inproc", "unix", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			kill := make(chan struct{})
			healthy := GoNetWorkers(nil, 0)
			var spawns atomic.Int32
			spawn := func(transport, addr string, workers int) (func() error, error) {
				if spawns.Add(1) > 1 {
					return healthy(transport, addr, workers)
				}
				c, err := mpi.DialHubWith(addr, mpi.WorldOptions{Transport: transport})
				if err != nil {
					return nil, err
				}
				gone := make(chan struct{})
				go func() {
					defer close(gone)
					defer c.Close()
					for _, tag := range []int{farm.TagTask, farm.TagPayload} {
						if _, _, err := c.Recv(0, tag); err != nil {
							return
						}
					}
					<-kill
				}()
				return func() error { <-gone; return nil }, nil
			}
			reg := telemetry.New()
			e := Engine{Workers: 1, Telemetry: reg, Backend: &NetBackend{Transport: transport, Spawn: spawn}}
			stop := e.Stand()
			defer stop()
			done := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() {
					_, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(100 + float64(i))})
					done <- err
				}()
			}
			// One round holds the worker, the other waits in the queue.
			deadline := time.Now().Add(5 * time.Second)
			for reg.Gauge("farm.session.open_rounds").Value() != 2 || reg.Gauge("farm.session.queued_batches").Value() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("the two rounds never opened on the session")
				}
				time.Sleep(100 * time.Microsecond)
			}
			close(kill)
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					var lost *mpi.LostError
					if !errors.As(err, &lost) || lost.Rank != 1 {
						t.Fatalf("a round in flight at the kill returned %v, want a LostError naming rank 1", err)
					}
				case <-time.After(3 * time.Second):
					t.Fatal("a round is still blocked 3 s after the session's only worker died")
				}
			}
			probs := []*premia.Problem{mcProblem(7), callProblem(95), mcProblem(8)}
			got, err := e.PriceBatch(context.Background(), probs)
			if err != nil {
				t.Fatalf("the round after the death: %v", err)
			}
			want, err := Engine{Workers: 1}.PriceBatch(context.Background(), probs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range probs {
				if got[i].Err != nil || math.Float64bits(got[i].Result.Price) != math.Float64bits(want[i].Result.Price) {
					t.Errorf("problem %d after reopening: %v (err %v), fault-free %v", i, got[i].Result.Price, got[i].Err, want[i].Result.Price)
				}
			}
			if n := spawns.Load(); n != 2 {
				t.Errorf("Spawn ran %d times, want 2 (one per session)", n)
			}
		})
	}
}

// BenchmarkSessionRound times the 16-task closed-form round of the
// ledger's farm.round_* cells two ways: one-shot — open a world, one
// round, stop, join, as every FarmBackend.Run does — and standing, the
// same round on a session that is already open. The frozen harness only
// times the first; this is the per-layer evidence for the second.
func BenchmarkSessionRound(b *testing.B) {
	// Serialized up front, like the ledger's cells: the round ships bytes
	// on the wire transports and never pays for building them.
	tasks := make([]farm.Task, 16)
	for i := range tasks {
		ser, err := nsp.Serialize(callProblem(80 + float64(i)))
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = farm.Task{Name: fmt.Sprintf("t%d", i), Data: ser.Data}
	}
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: 16}
	const workers = 1
	backends := []struct {
		name   string
		opener sessionOpener
	}{
		{"local", farm.Local{}},
		{"inproc", &NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)}},
		{"unix", &NetBackend{Transport: "unix", Addr: filepath.Join(b.TempDir(), "farm.sock"), Spawn: GoNetWorkers(nil, 0)}},
	}
	for _, be := range backends {
		b.Run(be.name+"/oneshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := be.opener.(FarmBackend).Run(context.Background(), tasks, opts, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(be.name+"/standing", func(b *testing.B) {
			s, err := be.opener.Open(opts, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(context.Background(), tasks, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
