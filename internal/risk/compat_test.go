package risk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// TestCompatMatrix is the rolling-upgrade acceptance test: every pairing
// of adjacent protocol versions (old worker ↔ new master and new worker
// ↔ old master), over both real transports, must price bit-identically
// to the in-process baseline. Optional wire features degrade silently:
// span payloads ship only when both ends negotiated the capability, and
// the hasdelta result marker survives exactly when the worker believes
// its master understands it.
func TestCompatMatrix(t *testing.T) {
	probs := []*premia.Problem{callProblem(90), callProblem(100), callProblem(110), mcProblem(7)}
	local := Engine{Workers: 2, BatchSize: 2}
	want, err := local.PriceBatch(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].Result.HasDelta {
		t.Fatal("baseline CF price should carry a delta; the hasdelta assertions below assume it")
	}

	for _, transport := range []string{"tcp", "unix"} {
		for _, masterProto := range []int{mpi.ProtoV1, mpi.ProtoV2} {
			for _, workerProto := range []int{mpi.ProtoV1, mpi.ProtoV2} {
				name := fmt.Sprintf("%s/master_v%d/worker_v%d", transport, masterProto, workerProto)
				t.Run(name, func(t *testing.T) {
					reg := telemetry.New()
					e := Engine{
						Workers:   2,
						BatchSize: 2,
						Telemetry: reg,
						Backend: &NetBackend{
							Transport: transport,
							Proto:     masterProto,
							Spawn:     GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, workerProto),
						},
					}
					root := reg.StartTrace("compat.request")
					ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
					out, err := e.PriceBatch(ctx, probs)
					root.End()
					if err != nil {
						t.Fatal(err)
					}

					// Prices must be bit-identical across every pairing:
					// the protocol downgrade may strip telemetry, never
					// numbers.
					for i := range probs {
						if out[i].Err != nil {
							t.Fatalf("problem %d: %v", i, out[i].Err)
						}
						if math.Float64bits(out[i].Result.Price) != math.Float64bits(want[i].Result.Price) {
							t.Errorf("problem %d: price %v over %s, local %v",
								i, out[i].Result.Price, transport, want[i].Result.Price)
						}
						if math.Float64bits(out[i].Result.PriceCI) != math.Float64bits(want[i].Result.PriceCI) {
							t.Errorf("problem %d: CI %v over %s, local %v",
								i, out[i].Result.PriceCI, transport, want[i].Result.PriceCI)
						}
					}

					// Span payloads cross the wire only when master and
					// worker both speak a protocol whose negotiated set
					// includes the spans capability: same-version pairs do
					// (v1 by the implicit legacy contract, v2 by explicit
					// handshake), mixed pairs silently unship them.
					shipped := 0
					for _, tr := range reg.SlowestTraces(0) {
						for _, s := range tr.Spans {
							if s.Name == "farm.compute" {
								shipped++
							}
						}
					}
					if masterProto == workerProto {
						if shipped != len(probs) {
							t.Errorf("%d worker spans shipped, want %d", shipped, len(probs))
						}
					} else if shipped != 0 {
						t.Errorf("%d worker spans shipped across a version boundary, want 0", shipped)
					}

					// The hasdelta marker is stripped only when a v2 worker
					// cannot confirm its master understands it (a v1 master
					// never negotiated the capability).
					wantDelta := !(masterProto == mpi.ProtoV1 && workerProto == mpi.ProtoV2)
					if got := out[0].Result.HasDelta; got != wantDelta {
						t.Errorf("HasDelta = %v, want %v for master v%d / worker v%d",
							got, wantDelta, masterProto, workerProto)
					}
				})
			}
		}
	}
}

// compatFlakyExec fails one named task and prices everything else
// deterministically, so capability pairings can be compared bit-for-bit
// while still generating a worker-side warning event (the
// farm.compute.error behind the events capability).
type compatFlakyExec struct{ fail string }

func (e compatFlakyExec) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	if name == e.fail {
		return nil, errors.New("injected compute failure")
	}
	h := nsp.NewHash()
	h.Set("name", nsp.Str(name))
	h.Set("price", nsp.Scalar(float64(len(name))*1.25))
	return h, nil
}

// TestCompatEventsCapability is the flight recorder's row of the
// rolling-upgrade matrix: a peer whose announced capability set predates
// "events" (it speaks ProtoV2 but only spans+hasdelta — an older build
// mid-upgrade) must downgrade silently. The failing task comes back
// with its error and the other prices stay bit-identical in every
// pairing; the worker's warning events reach the master's log exactly
// when both ends negotiated the capability.
func TestCompatEventsCapability(t *testing.T) {
	const nw = 2
	legacy := mpi.CapSpans | mpi.CapHasDelta // no events
	cases := []struct {
		name       string
		masterCaps mpi.CapSet
		workerCaps mpi.CapSet
		wantEvents bool
	}{
		{"events_master/events_worker", mpi.AllCaps, mpi.AllCaps, true},
		{"events_master/legacy_worker", mpi.AllCaps, legacy, false},
		{"legacy_master/events_worker", legacy, mpi.AllCaps, false},
	}
	prices := make(map[string]map[string]uint64)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub, err := mpi.ListenHubWith("", nw+1, mpi.WorldOptions{Transport: "tcp", Caps: tc.masterCaps})
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			accepted := make(chan error, 1)
			go func() { accepted <- hub.WaitWorkers() }()
			exec := compatFlakyExec{fail: "job-01"}
			var wg sync.WaitGroup
			for i := 0; i < nw; i++ {
				c, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{Transport: "tcp", Caps: tc.workerCaps})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(c mpi.Comm) {
					defer wg.Done()
					defer c.Close()
					if werr := farm.RunWorker(c, exec, nil,
						farm.Options{Strategy: farm.SerializedLoad, Telemetry: telemetry.New()}); werr != nil {
						t.Errorf("worker: %v", werr)
					}
				}(c)
			}
			if err := <-accepted; err != nil {
				t.Fatal(err)
			}
			tasks := make([]farm.Task, 4)
			for i := range tasks {
				tasks[i] = farm.Task{Name: fmt.Sprintf("job-%02d", i), Data: []byte("x")}
			}
			reg := telemetry.New()
			results, err := farm.RunMaster(context.Background(), hub, tasks, farm.LiveLoader{},
				farm.Options{Strategy: farm.SerializedLoad, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			got := make(map[string]uint64, len(results))
			for _, r := range results {
				if r.Name == exec.fail {
					if r.Err == nil || !strings.Contains(r.Err.Error(), "injected compute failure") {
						t.Errorf("%s came back with %v, want its failure", r.Name, r.Err)
					}
					continue
				}
				if r.Err != nil {
					t.Fatalf("%s failed: %v", r.Name, r.Err)
				}
				p, err := farm.AsPriced(r)
				if err != nil {
					t.Fatalf("%s: %v", r.Name, err)
				}
				got[r.Name] = math.Float64bits(p.Result.Price)
			}
			if len(got) != len(tasks)-1 {
				t.Fatalf("%d tasks priced, want %d", len(got), len(tasks)-1)
			}
			prices[tc.name] = got

			// The master's own failure bookkeeping is capability-independent.
			if n := len(reg.Events(telemetry.EventFilter{Prefix: "farm.task.fail"})); n != 1 {
				t.Errorf("%d farm.task.fail events, want 1", n)
			}
			// The worker's compute error crosses the wire only when both
			// ends negotiated "events" — and then it arrives
			// rank-attributed.
			cerrs := reg.Events(telemetry.EventFilter{Prefix: "farm.compute.error"})
			if tc.wantEvents {
				if len(cerrs) != 1 {
					t.Fatalf("%d farm.compute.error events at the master, want 1", len(cerrs))
				}
				if r := cerrs[0].Rank; r < 1 || r > nw {
					t.Errorf("shipped event attributed to rank %d, want a worker rank", r)
				}
			} else if len(cerrs) != 0 {
				t.Errorf("%d worker events crossed a capability boundary, want 0", len(cerrs))
			}
		})
	}
	base := prices[cases[0].name]
	if len(base) == 0 {
		t.Fatal("baseline pairing produced no prices")
	}
	for _, tc := range cases[1:] {
		for name, bits := range prices[tc.name] {
			if bits != base[name] {
				t.Errorf("%s: %s priced differently than the full-caps pairing", tc.name, name)
			}
		}
	}
}

// TestCompatNetBackendDefaults checks the default protocol: a tcp
// NetBackend with no protocol pinned speaks the latest one and keeps the
// full feature set.
func TestCompatNetBackendDefaults(t *testing.T) {
	reg := telemetry.New()
	e := Engine{
		Workers:   2,
		Telemetry: reg,
		Backend:   &NetBackend{Transport: "tcp", Spawn: GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, 0)},
	}
	probs := []*premia.Problem{callProblem(95), callProblem(105)}
	root := reg.StartTrace("compat.request")
	ctx := telemetry.ContextWithTrace(context.Background(), root.Context())
	out, err := e.PriceBatch(ctx, probs)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("problem %d: %v", i, o.Err)
		}
		if !o.Result.HasDelta {
			t.Errorf("problem %d lost its hasdelta marker on the default path", i)
		}
	}
	shipped := 0
	for _, tr := range reg.SlowestTraces(0) {
		for _, s := range tr.Spans {
			if s.Name == "farm.compute" {
				shipped++
			}
		}
	}
	if shipped != len(probs) {
		t.Errorf("%d worker spans shipped, want %d", shipped, len(probs))
	}
}
