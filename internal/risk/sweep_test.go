package risk

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
)

func sameResult(a, b premia.Result) bool {
	bits := math.Float64bits
	return bits(a.Price) == bits(b.Price) && bits(a.PriceCI) == bits(b.PriceCI) &&
		bits(a.Delta) == bits(b.Delta) && a.HasDelta == b.HasDelta && bits(a.Work) == bits(b.Work)
}

// sweepBook is mixedSample plus the claims the scenario tokens resolve
// differently on: a Heston put (@vol is its variance V0), two Vasicek
// claims (@rate is r0, and they carry no spot) and a seeded Monte Carlo
// call.
func sweepBook(t *testing.T) *portfolio.Portfolio {
	pf := mixedSample(t)
	heston := premia.New().
		SetModel(premia.ModelHeston).SetOption(premia.OptPutEuro).SetMethod(premia.MethodCFHeston).
		Set("S0", 100).Set("r", 0.03).Set("V0", 0.04).Set("kappa", 2).Set("theta", 0.04).
		Set("sigmaV", 0.3).Set("rhoSV", -0.5).Set("K", 100).Set("T", 1)
	pf.Items = append(pf.Items,
		portfolio.Item{Name: "heston", Problem: heston, Cost: 1},
		portfolio.Item{Name: "mc", Problem: mcProblem(7), Cost: 1})
	pf.Items = append(pf.Items, portfolio.Mixed(12).Items[7:9]...)
	return pf
}

// TestSweepEqualsApply: what a revaluation farms is, cell for cell,
// Scenario.Apply's problem, and what comes back is that problem's
// Compute, every field to the bit — over seeded random scenario sets on a
// book where a scenario shifts one parameter twice, @vol lands on a Heston
// variance and @rate on a Vasicek r0, a spot scenario skips the credit and
// rate claims, half the base column comes from the cache and claims are
// cut across sweeps. The claims' own problems come out untouched. A cell
// the kernel refuses in the middle of a sweep leaves the cells behind it
// right and fails the revaluation under its own (scenario, claim) name.
func TestSweepEqualsApply(t *testing.T) {
	pf := sweepBook(t)
	rng := rand.New(rand.NewSource(23))
	scenarios := []Scenario{
		{Name: "spot twice", Shifts: []Shift{{Param: "S0", Rel: 0.1}, {Param: "S0", Rel: -0.05, Abs: 1}}},
		{Name: "vol twice", Shifts: []Shift{{Param: VolToken, Rel: 0.3}, {Param: VolToken, Rel: -0.1, Abs: 0.01}}},
		{Name: "rate", Shifts: []Shift{{Param: RateToken, Abs: 0.002}}},
	}
	params := []string{"S0", VolToken, RateToken, "T"}
	for len(scenarios) < 14 {
		sc := Scenario{Name: fmt.Sprintf("random-%d", len(scenarios))}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			sc.Shifts = append(sc.Shifts, Shift{Param: params[rng.Intn(len(params))], Rel: 0.2 * (rng.Float64() - 0.5), Abs: 0.002 * rng.Float64()})
		}
		scenarios = append(scenarios, sc)
	}

	cache := newMapCache()
	keys, before := make([]string, pf.Size()), make([]premia.Params, pf.Size())
	for i, it := range pf.Items {
		keys[i], before[i] = it.Problem.ContentKey(), maps.Clone(it.Problem.Params)
		if i%2 == 0 {
			res, err := it.Problem.Compute()
			if err != nil {
				t.Fatal(err)
			}
			cache.Put(keys[i], res)
		}
	}
	rec := &recordingBackend{}
	e := Engine{Workers: 2, BatchSize: 3, Cache: cache, Backend: rec}
	val, err := e.Revalue(pf, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]*farm.PricedBlock{}
	for _, r := range rec.results {
		blocks[r.Name] = r.Value.(*farm.PricedBlock)
	}

	// The recorded sweeps follow the book, a claim's in cell order: walk
	// them against the cells the claim must have — its base unless cached,
	// then every scenario that applies to it.
	next, split := 0, false
	for i, it := range pf.Items {
		type cell struct {
			s   int
			ref *premia.Problem
		}
		var want []cell
		if i%2 != 0 {
			want = append(want, cell{-1, it.Problem})
		}
		for s, sc := range scenarios {
			if !applies(sc, it.Problem) {
				if val.Values[s][i] != val.Base[i] {
					t.Errorf("%s skips %s but holds %v, base %v", it.Name, sc.Name, val.Values[s][i], val.Base[i])
				}
				continue
			}
			ref, err := sc.Apply(it.Problem)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, cell{s, ref})
		}
		for parts := 0; len(want) > 0; parts++ {
			split = split || parts > 0
			task := rec.tasks[next]
			next++
			sw := task.Obj.(*premia.Sweep)
			if !strings.HasPrefix(task.Name, it.Name) || len(sw.Cells) > 2*e.Batch() || len(sw.Cells) > len(want) {
				t.Fatalf("sweep %q of %d cells, want at most %d of the %d left of %s", task.Name, len(sw.Cells), 2*e.Batch(), len(want), it.Name)
			}
			block := blocks[task.Name]
			for k := range sw.Cells {
				c := want[k]
				if got := sw.Cell(k); !maps.Equal(got.Params, c.ref.Params) || got.String() != c.ref.String() {
					t.Errorf("%s cell %d (scenario %d): farmed %v, Apply builds %v", task.Name, k, c.s, got.Params, c.ref.Params)
				}
				res, err := c.ref.Compute()
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(block.Results[k], res) {
					t.Errorf("%s cell %d (scenario %d): block %+v, Apply + Compute %+v", task.Name, k, c.s, block.Results[k], res)
				}
				if c.s >= 0 && val.Values[c.s][i] != res.Price {
					t.Errorf("%s under %s: surface %v, Apply + Compute %v", it.Name, scenarios[c.s].Name, val.Values[c.s][i], res.Price)
				}
				if c.s < 0 && (val.Base[i] != res.Price || val.BaseDelta[i] != res.Delta || val.BaseHasDelta[i] != res.HasDelta) {
					t.Errorf("%s base: surface (%v, %v, %v), Compute %+v", it.Name, val.Base[i], val.BaseDelta[i], val.BaseHasDelta[i], res)
				}
			}
			want = want[len(sw.Cells):]
		}
		if cached, _ := cache.Get(keys[i]); cached.Price != val.Base[i] {
			t.Errorf("%s: base %v, the cache holds %v", it.Name, val.Base[i], cached.Price)
		}
		if it.Problem.ContentKey() != keys[i] || !maps.Equal(it.Problem.Params, before[i]) {
			t.Errorf("%s: the revaluation changed the claim's own problem", it.Name)
		}
	}
	if next != len(rec.tasks) || !split {
		t.Errorf("walked %d of %d sweeps (a claim cut across sweeps: %v)", next, len(rec.tasks), split)
	}

	// A refused cell mid-sweep: every toy claim's third cell.
	rec = &recordingBackend{}
	failing := []Scenario{SpotLadder()[0], {Name: "negative-vol", Shifts: []Shift{{Param: "sigma", Abs: -1}}}, SpotLadder()[9], RateShifts()[0]}
	toy := portfolio.Toy(3)
	_, err = Engine{Workers: 2, Backend: rec}.Revalue(toy, failing)
	if err == nil || !strings.Contains(err.Error(), "risk: revalue s002/"+toy.Items[0].Name+": ") {
		t.Fatalf("revaluation under a negative volatility returned %v, want the first claim's s002 cell named", err)
	}
	if len(rec.results) != toy.Size() {
		t.Fatalf("%d blocks for %d claims", len(rec.results), toy.Size())
	}
	for _, r := range rec.results {
		block := r.Value.(*farm.PricedBlock)
		if len(block.Errs) != 5 || block.Errs[2] == nil || block.Results[2] != (premia.Result{}) {
			t.Fatalf("%s: errors %v, want cell 2 alone refused", r.Name, block.Errs)
		}
		var base *premia.Problem
		for _, it := range toy.Items {
			if it.Name == r.Name {
				base = it.Problem
			}
		}
		for k := range block.Results {
			if k == 2 {
				continue
			}
			ref := base // cell 0 is the base column, cell k scenario k-1
			if k > 0 {
				ref, _ = failing[k-1].Apply(base)
			}
			if res, _ := ref.Compute(); block.Errs[k] != nil || !sameResult(block.Results[k], res) {
				t.Errorf("%s cell %d beside the refused one: %+v (err %v), want %+v", r.Name, k, block.Results[k], block.Errs[k], res)
			}
		}
	}
}

// TestRevalueCancelMidRound: a cancelled revaluation returns its
// context's error once the sweeps in flight have drained — a sweep being
// at most 2 × BatchSize cells, not a claim's whole scenario set. Each of
// the two claims below is 4097 Monte Carlo cells, far more than the test
// waits for. The round is deliberately left unbunched — a Monte Carlo
// claim has no sweep form — so a message holds one 8-cell sweep, not an
// eighth of the round (TestRevalueCancelBunched is the bunched case).
func TestRevalueCancelMidRound(t *testing.T) {
	pf := &portfolio.Portfolio{Name: "slow", Items: []portfolio.Item{
		{Name: "a", Problem: mcProblem(1).Set("paths", 20000), Cost: 1},
		{Name: "b", Problem: mcProblem(2).Set("paths", 20000), Cost: 1},
	}}
	scenarios := make([]Scenario, 4096)
	for s := range scenarios {
		scenarios[s] = Scenario{Name: fmt.Sprintf("s%d", s), Shifts: []Shift{{Param: "S0", Rel: 0.0001 * float64(s)}}}
	}
	for name, backend := range standingBackends() {
		t.Run(name, func(t *testing.T) {
			rec := &recordingBackend{inner: backend}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(20*time.Millisecond, cancel)
			start := time.Now()
			_, err := Engine{Workers: 2, BatchSize: 4, Backend: rec}.RevalueContext(ctx, pf, scenarios)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled revaluation returned %v", err)
			}
			// 8194 cells of ~1 ms: uncancelled, or cancelled between claims,
			// this runs for seconds.
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("cancellation took %v", took)
			}
			if len(rec.tasks) < 1000 {
				t.Errorf("the round held %d sweeps, want the two claims cut into more than 1000", len(rec.tasks))
			}
			if want := max(1, 2*4/(len(scenarios)+1)); len(rec.batches) != 1 || rec.batches[0] != want {
				t.Errorf("the round dealt %v sweeps a message, want today's %d", rec.batches, want)
			}
		})
	}
}

// TestStandingEngineConcurrentRevalues: four goroutines revalue the same
// portfolio — the same *premia.Problem under every sweep's Base — on one
// standing engine, and every surface is bit-equal to the serial one with
// no claim's problem changed: a worker prices on a scratch copy of its
// own. Run under -race.
func TestStandingEngineConcurrentRevalues(t *testing.T) {
	pf := sweepBook(t)
	scenarios := append(SpotLadder(), StressScenarios()...)
	want, err := Engine{Workers: 1}.Revalue(pf, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]premia.Params, pf.Size())
	for i, it := range pf.Items {
		before[i] = maps.Clone(it.Problem.Params)
	}
	for name, backend := range standingBackends() {
		if name == "unix" {
			continue // the wire path is inproc's; sockets add nothing here
		}
		t.Run(name, func(t *testing.T) {
			e := Engine{Workers: 3, BatchSize: 2, Backend: backend}
			stop := e.Stand()
			const callers = 4
			vals, errs := make([]*Valuation, callers), make([]error, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vals[c], errs[c] = e.Revalue(pf, scenarios)
				}()
			}
			wg.Wait()
			if err := stop(); err != nil {
				t.Fatalf("stop: %v", err)
			}
			for c := 0; c < callers; c++ {
				if errs[c] != nil {
					t.Fatalf("caller %d: %v", c, errs[c])
				}
				for i := range pf.Items {
					if math.Float64bits(vals[c].Base[i]) != math.Float64bits(want.Base[i]) {
						t.Errorf("caller %d base %s: %v, serial %v", c, pf.Items[i].Name, vals[c].Base[i], want.Base[i])
					}
					for s := range scenarios {
						if math.Float64bits(vals[c].Values[s][i]) != math.Float64bits(want.Values[s][i]) {
							t.Errorf("caller %d %s/%s: %v, serial %v", c, scenarios[s].Name, pf.Items[i].Name, vals[c].Values[s][i], want.Values[s][i])
						}
					}
				}
			}
			for i, it := range pf.Items {
				if !maps.Equal(it.Problem.Params, before[i]) {
					t.Errorf("%s: a concurrent revaluation changed the claim's problem", it.Name)
				}
			}
		})
	}
}
