package risk

import (
	"context"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
)

// recordingBackend keeps every task the engine hands the farm seam and
// runs the round on the default local farm.
type recordingBackend struct {
	mu    sync.Mutex
	tasks []farm.Task
}

func (b *recordingBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error) {
	b.mu.Lock()
	b.tasks = append(b.tasks, tasks...)
	b.mu.Unlock()
	return farm.Local{}.Run(ctx, tasks, opts, workers)
}

// TestOneRoundShipsObjects pins the one problems→farm path: whatever
// RevalueContext and PriceBatch farm goes out as a problem object under
// a unique name, never as bytes serialized on the master — in-process
// workers take the object by reference and a wire loader serializes it
// on demand.
func TestOneRoundShipsObjects(t *testing.T) {
	rec := &recordingBackend{}
	e := Engine{Workers: 2, Backend: rec}
	if _, err := e.Revalue(smallBook(), SpotLadder()[:3]); err != nil {
		t.Fatal(err)
	}
	revalued := len(rec.tasks)
	if want := 4 * smallBook().Size(); revalued != want {
		t.Fatalf("Revalue farmed %d tasks, want %d", revalued, want)
	}
	if _, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(90), callProblem(100), callProblem(90)}); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.tasks) - revalued; got != 2 {
		t.Fatalf("PriceBatch farmed %d tasks, want the 2 distinct problems", got)
	}
	seen := map[string]bool{}
	for _, task := range rec.tasks {
		if task.Obj == nil || task.Data != nil {
			t.Errorf("task %s: Obj set %v, Data set %v; want the object only", task.Name, task.Obj != nil, task.Data != nil)
		}
		if seen[task.Name] {
			t.Errorf("task name %s handed to the farm twice", task.Name)
		}
		seen[task.Name] = true
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
func TestRevalueEqualsPriceBatch(t *testing.T) {
	pf := mixedSample(t)
	scenarios := []Scenario{
		SpotLadder()[0], // skips the claims without a spot
		RateShifts()[5],
		{Name: "crash", Shifts: []Shift{{Param: RateToken, Abs: -0.002}, {Param: VolToken, Rel: 0.3}}},
	}
	skips := 0
	for _, it := range pf.Items {
		if !scenarios[0].AppliesTo(it.Problem) {
			skips++
		}
	}
	if skips == 0 || skips == pf.Size() {
		t.Fatalf("spot scenario skips %d of %d claims, want a proper part of the book", skips, pf.Size())
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		backend FarmBackend
	}{
		{"local", LocalBackend{}},
		{"hierarchical", farm.Local{Groups: 2, Chunk: 2}},
		{"inproc", &NetBackend{Transport: "inproc", Spawn: GoNetWorkers(nil, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := Engine{Workers: 3, BatchSize: 4, Backend: tc.backend}
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
			for s, sc := range scenarios {
				shifted := make([]*premia.Problem, pf.Size())
				for i, it := range pf.Items {
					shifted[i] = it.Problem // a skipped claim holds its base value
					if sc.AppliesTo(it.Problem) {
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
		})
	}

	// One problem on a two-group hierarchy: the round is sized to the
	// work, and farm.Local still gives every sub-master a worker.
	out, err := Engine{Workers: 4, Backend: farm.Local{Groups: 2}}.PriceBatch(ctx, []*premia.Problem{callProblem(100)})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := callProblem(100).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Result.Price != direct.Price {
		t.Fatalf("one problem over two groups = %+v, want price %v", out[0], direct.Price)
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
