package risk

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// recordingBackend keeps every task the engine hands the farm seam, each
// round's tasks-per-message (opts.BatchSize) and every result that comes
// back, and runs the round on inner (nil = the default local farm).
type recordingBackend struct {
	inner   FarmBackend
	mu      sync.Mutex
	tasks   []farm.Task
	batches []int
	results []farm.Result
}

func (b *recordingBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error) {
	inner := b.inner
	if inner == nil {
		inner = farm.Local{}
	}
	results, err := inner.Run(ctx, tasks, opts, workers)
	b.mu.Lock()
	b.tasks = append(b.tasks, tasks...)
	b.batches = append(b.batches, opts.BatchSize)
	b.results = append(b.results, results...)
	b.mu.Unlock()
	return results, err
}

// TestOneRoundShipsObjects pins the one route to the farm: whatever
// RevalueContext and PriceBatch farm goes out as the object itself under
// a unique name — a claim's *premia.Sweep, a *premia.Problem — never as a
// hash or as bytes built on the master, and in process comes back as the
// worker's *farm.PricedBlock or *farm.Priced — as itself in process, as
// its hash on the wire.
func TestOneRoundShipsObjects(t *testing.T) {
	rec := &recordingBackend{}
	e := Engine{Workers: 2, Backend: rec}
	if _, err := e.Revalue(smallBook(), SpotLadder()[:3]); err != nil {
		t.Fatal(err)
	}
	revalued := len(rec.tasks)
	if want := smallBook().Size(); revalued != want {
		t.Fatalf("Revalue farmed %d tasks, want %d: one sweep a claim", revalued, want)
	}
	if _, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(90), callProblem(100), callProblem(90)}); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.tasks) - revalued; got != 3 {
		t.Fatalf("PriceBatch farmed %d tasks, want all 3 it was given", got)
	}
	seen := map[string]bool{}
	for k, task := range rec.tasks {
		if k < revalued {
			if sw, ok := task.Obj.(*premia.Sweep); !ok || task.Data != nil || len(sw.Cells) != 4 {
				t.Errorf("task %s: Obj is %T, Data set %v; want the 4-cell *premia.Sweep only", task.Name, task.Obj, task.Data != nil)
			}
		} else if _, ok := task.Obj.(*premia.Problem); !ok || task.Data != nil {
			t.Errorf("task %s: Obj is %T, Data set %v; want the *premia.Problem only", task.Name, task.Obj, task.Data != nil)
		}
		if seen[task.Name] {
			t.Errorf("task name %s handed to the farm twice", task.Name)
		}
		seen[task.Name] = true
	}
	blocks := 0
	for _, r := range rec.results {
		switch r.Value.(type) {
		case *farm.PricedBlock:
			blocks++
		case *farm.Priced:
		default:
			t.Errorf("result %s: Value is %T, want the worker's *farm.Priced or *farm.PricedBlock", r.Name, r.Value)
		}
	}
	if blocks != revalued {
		t.Errorf("%d sweeps were answered by %d blocks", revalued, blocks)
	}

	// What the by-reference round must not move: over a framed transport
	// a problem's payload is byte for byte nsp.Serialize of its ToNsp
	// hash, and a result crosses as the result hash spelled out here field
	// by field — hasdelta present only when the method computed a delta
	// and the master negotiated the capability.
	serialized := func(o nsp.Object) []byte {
		t.Helper()
		ser, err := nsp.Serialize(o)
		if err != nil {
			t.Fatal(err)
		}
		return ser.Data
	}
	probs := []*premia.Problem{callProblem(90), mcProblem(7), callProblem(100).Set("sigma", -1)}
	for _, tc := range []struct {
		name                     string
		masterProto, workerProto int
		hasDelta                 bool
	}{
		{"hasdelta negotiated", 0, 0, true},
		// A v2 worker assumes nothing of a master that never said hello.
		{"hasdelta stripped", mpi.ProtoV1, mpi.ProtoV2, false},
	} {
		t.Run("inproc/"+tc.name, func(t *testing.T) {
			rec := &recordingBackend{inner: &NetBackend{Transport: "inproc", Proto: tc.masterProto, Spawn: GoNetWorkers(nil, tc.workerProto)}}
			if _, err := (Engine{Workers: 2, Backend: rec}).PriceBatch(context.Background(), probs); err != nil {
				t.Fatal(err)
			}
			if len(rec.tasks) != len(probs) || len(rec.results) != len(probs) {
				t.Fatalf("%d tasks and %d results recorded, want %d of each", len(rec.tasks), len(rec.results), len(probs))
			}
			direct, failure := map[string]premia.Result{}, map[string]error{}
			for _, task := range rec.tasks {
				p := task.Obj.(*premia.Problem)
				h, err := p.ToNsp()
				if err != nil {
					t.Fatal(err)
				}
				payload, err := farm.LiveLoader{}.Load(task, farm.SerializedLoad)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload, serialized(h)) {
					t.Errorf("task %s: the loader's payload is not nsp.Serialize(p.ToNsp())", task.Name)
				}
				if direct[task.Name], err = p.Compute(); err != nil {
					failure[task.Name] = err
				}
			}
			if len(failure) != 1 {
				t.Fatalf("%d of the problems fail to price, want the one with a negative volatility", len(failure))
			}
			sawDelta := false
			for _, r := range rec.results {
				got, ok := r.Value.(*nsp.Hash)
				if !ok {
					t.Fatalf("result %s came off the wire as %T, want a hash", r.Name, r.Value)
				}
				res := direct[r.Name]
				seconds, _ := got.Get("seconds") // measured, not derivable
				want := nsp.NewHash()
				want.Set("name", nsp.Str(r.Name))
				want.Set("seconds", seconds)
				if err := failure[r.Name]; err != nil {
					want.Set("error", nsp.Str(fmt.Sprintf("farm: compute %q: %v", r.Name, err)))
				} else {
					want.Set("price", nsp.Scalar(res.Price))
					want.Set("priceCI", nsp.Scalar(res.PriceCI))
					want.Set("delta", nsp.Scalar(res.Delta))
					want.Set("work", nsp.Scalar(res.Work))
					if res.HasDelta && tc.hasDelta {
						want.Set("hasdelta", nsp.Scalar(1))
						sawDelta = true
					}
				}
				if !bytes.Equal(serialized(got), serialized(want)) {
					t.Errorf("result %s crossed the wire as %v, want %v", r.Name, got, want)
				}
				// The typed result encodes to those same bytes.
				typed, err := farm.AsPriced(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialized(typed), serialized(want)) {
					t.Errorf("result %s: *farm.Priced serializes differently from its hash", r.Name)
				}
			}
			if sawDelta != tc.hasDelta {
				t.Errorf("hasdelta on the wire: %v, want %v", sawDelta, tc.hasDelta)
			}
		})
	}
}

// TestRevalueAllocs is the allocation budget of the by-reference round:
// a toy revaluation on the default in-process farm — spans, histograms
// and fleet book live, as riskserver runs it — allocates at most 3
// objects per repricing (it measures 1.5: what is left is per sweep).
// A task per cell cost 10; converting each problem to its hash and back
// and each result to a hash cost 57.
func TestRevalueAllocs(t *testing.T) {
	pf := portfolio.Toy(250)
	scenarios := append(Grid([]float64{-0.1, -0.05, 0.05, 0.1}, []float64{-0.2, -0.1, 0.1, 0.2}), RateShifts()...)
	e := Engine{Workers: 1, Telemetry: telemetry.New(), Fleet: farm.NewFleet()}
	repricings := float64(pf.Size() * (len(scenarios) + 1))
	revalue := func() {
		if _, err := e.Revalue(pf, scenarios); err != nil {
			t.Fatal(err)
		}
	}
	revalue()
	if got := testing.AllocsPerRun(5, revalue) / repricings; got > 3 {
		t.Errorf("a toy revaluation allocates %.1f per repricing, budget is 3", got)
	}
}

// mixedSample is a toy book plus a strided sample of the realistic one
// (every product class, numerical effort ×10⁻³) and two credit claims
// an equity spot scenario does not apply to.
func mixedSample(t *testing.T) *portfolio.Portfolio {
	t.Helper()
	real := portfolio.Realistic()
	if err := real.ScaleEffort(1e-3); err != nil {
		t.Fatal(err)
	}
	pf := &portfolio.Portfolio{Name: "mixed-sample", Items: portfolio.Toy(6).Items}
	for i := 0; i < len(real.Items); i += 700 {
		pf.Items = append(pf.Items, real.Items[i])
	}
	mixed := portfolio.Mixed(40).Items
	pf.Items = append(pf.Items, mixed[len(mixed)-2:]...)
	return pf
}

// TestRevalueEqualsPriceBatch is the contract of the shared round: the
// revaluation surface is, bit for bit, what PriceBatch returns for the
// same shifted problems, on every backend — so there is one pricing
// path to reason about, and topology or transport never reaches a price.
// It is also the by-reference-versus-wire oracle: the local farm hands
// problems and results across as themselves, the inproc backend turns
// both into bytes and back, and every field of every result — and the
// text of a pricing failure — must come out the same from both, and from
// the unix backend, a real socket. Each walks a 3-scenario set, whose sweeps
// share messages, and a 40-scenario one, whose claims are each cut into
// several: over the wire backends every cell of either crosses as the
// problem Apply builds and comes back folded into its block.
func TestRevalueEqualsPriceBatch(t *testing.T) {
	pf := mixedSample(t)
	scenarios := []Scenario{
		SpotLadder()[0], // skips the claims without a spot
		RateShifts()[5],
		{Name: "crash", Shifts: []Shift{{Param: RateToken, Abs: -0.002}, {Param: VolToken, Rel: 0.3}}},
	}
	// forty is a set no message holds: at BatchSize 4 a message carries at
	// most 8 cells, so a claim's 41 are cut into 6 sweeps.
	forty := append(append(Grid([]float64{-0.2, -0.1, -0.05, 0.05, 0.1, 0.2}, []float64{-0.5, -0.2, 0, 0.2, 0.5}), RateShifts()...), StressScenarios()...)
	if len(forty) != 40 {
		t.Fatalf("the long row has %d scenarios, want 40", len(forty))
	}
	skips := 0
	for _, it := range pf.Items {
		if !applies(scenarios[0], it.Problem) {
			skips++
		}
	}
	if skips == 0 || skips == pf.Size() {
		t.Fatalf("spot scenario skips %d of %d claims, want a proper part of the book", skips, pf.Size())
	}
	ctx := context.Background()
	// reference and referenceFailure are the first backend's answers, which
	// the later backends must reproduce.
	var (
		reference        []PriceOutcome
		referenceFailure string
	)
	for _, tc := range []struct {
		name    string
		backend FarmBackend
	}{
		{"local", LocalBackend{}},
		{"inproc", &NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)}},
		{"unix", &NetBackend{Transport: "unix", Spawn: GoNetWorkers(nil, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := Engine{Workers: 3, BatchSize: 4, Backend: tc.backend}
			for _, scenarios := range [][]Scenario{scenarios, forty} {
				val, err := e.RevalueContext(ctx, pf, scenarios)
				if err != nil {
					t.Fatal(err)
				}
				base := make([]*premia.Problem, pf.Size())
				for i, it := range pf.Items {
					base[i] = it.Problem
				}
				want, err := e.PriceBatch(ctx, base)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					if w.Err != nil {
						t.Fatalf("base %s: %v", pf.Items[i].Name, w.Err)
					}
					if val.Base[i] != w.Result.Price || val.BaseDelta[i] != w.Result.Delta || val.BaseHasDelta[i] != w.Result.HasDelta {
						t.Errorf("base %s: revalue (%v, %v, %v), PriceBatch (%v, %v, %v)", pf.Items[i].Name,
							val.Base[i], val.BaseDelta[i], val.BaseHasDelta[i], w.Result.Price, w.Result.Delta, w.Result.HasDelta)
					}
				}
				// A lone failing task always lands on rank 1, so even the rank in
				// its error text is comparable.
				failed, err := e.PriceBatch(ctx, []*premia.Problem{callProblem(100).Set("sigma", -1)})
				if err != nil || failed[0].Err == nil {
					t.Fatalf("a negative volatility priced: %+v, %v", failed, err)
				}
				if reference == nil {
					reference, referenceFailure = want, failed[0].Err.Error()
				}
				for i, w := range want {
					got, ref := w.Result, reference[i].Result
					if math.Float64bits(got.Price) != math.Float64bits(ref.Price) || math.Float64bits(got.PriceCI) != math.Float64bits(ref.PriceCI) ||
						math.Float64bits(got.Delta) != math.Float64bits(ref.Delta) || got.HasDelta != ref.HasDelta ||
						math.Float64bits(got.Work) != math.Float64bits(ref.Work) {
						t.Errorf("base %s: %+v here, %+v by reference on the flat local farm", pf.Items[i].Name, got, ref)
					}
				}
				if got := failed[0].Err.Error(); got != referenceFailure {
					t.Errorf("pricing failure reads %q here, %q on the flat local farm", got, referenceFailure)
				}
				for s, sc := range scenarios {
					shifted := make([]*premia.Problem, pf.Size())
					for i, it := range pf.Items {
						shifted[i] = it.Problem // a skipped claim holds its base value
						if applies(sc, it.Problem) {
							if shifted[i], err = sc.Apply(it.Problem); err != nil {
								t.Fatal(err)
							}
						}
					}
					want, err := e.PriceBatch(ctx, shifted)
					if err != nil {
						t.Fatal(err)
					}
					for i, w := range want {
						if w.Err != nil {
							t.Fatalf("%s/%s: %v", sc.Name, pf.Items[i].Name, w.Err)
						}
						if val.Values[s][i] != w.Result.Price {
							t.Errorf("%s/%s: revalue %v, PriceBatch %v", sc.Name, pf.Items[i].Name, val.Values[s][i], w.Result.Price)
						}
					}
				}
			}
		})
	}
}

// TestRevalueSurfacesPricingFailure: a shifted problem the pricer
// rejects must fail the revaluation with the (scenario, claim) it
// belongs to, not leave a zero in the surface.
func TestRevalueSurfacesPricingFailure(t *testing.T) {
	scenarios := []Scenario{
		SpotLadder()[0],
		{Name: "negative-vol", Shifts: []Shift{{Param: "sigma", Abs: -1}}},
	}
	val, err := Engine{Workers: 2}.Revalue(smallBook(), scenarios)
	if err == nil {
		t.Fatalf("revaluation under a negative volatility succeeded: %v", val.Values[1])
	}
	if !strings.Contains(err.Error(), "s002/call-") {
		t.Fatalf("error %q does not name the failing (scenario, claim) task", err)
	}
}
