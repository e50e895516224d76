package risk

import (
	"context"
	"errors"
	"sync"
	"testing"

	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// mapCache is a minimal PriceCache for the tests; the production sharded
// LRU lives in internal/serve.
type mapCache struct {
	mu sync.Mutex
	m  map[string]premia.Result
}

func newMapCache() *mapCache { return &mapCache{m: map[string]premia.Result{}} }

func (c *mapCache) Get(key string) (premia.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *mapCache) Put(key string, res premia.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = res
}

func mcProblem(seed uint64) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodMCEuro).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 100).Set("T", 1).
		Set("paths", 2000).SetSeed(seed)
}

func TestPriceBatchMatchesCompute(t *testing.T) {
	e := Engine{Workers: 3, BatchSize: 2}
	probs := []*premia.Problem{callProblem(90), callProblem(100), callProblem(110)}
	out, err := e.PriceBatch(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if out[i].Err != nil {
			t.Fatalf("problem %d: %v", i, out[i].Err)
		}
		want, err := p.Compute()
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Result.Price != want.Price || out[i].Result.Delta != want.Delta {
			t.Errorf("problem %d: farm price %v/%v, direct %v/%v",
				i, out[i].Result.Price, out[i].Result.Delta, want.Price, want.Delta)
		}
		if !out[i].Result.HasDelta {
			t.Errorf("problem %d lost HasDelta through the farm", i)
		}
		if out[i].Cached {
			t.Errorf("problem %d reported cached on a cold engine", i)
		}
	}
}

func TestPriceBatchPerProblemErrors(t *testing.T) {
	e := Engine{Workers: 2}
	bad := premia.New().SetModel("nope").SetOption("nope").SetMethod("nope")
	out, err := e.PriceBatch(context.Background(), []*premia.Problem{callProblem(100), bad, nil})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatalf("good problem failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, premia.ErrUnknownMethod) {
		t.Fatalf("invalid problem error = %v, want ErrUnknownMethod", out[1].Err)
	}
	if out[2].Err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestPriceBatchPricesWhatItIsGiven: PriceBatch is no cache. Duplicates
// are each farmed — a seeded problem prices to the same bits every time —
// and a result already in the engine's Cache is neither read nor
// rewritten: the serving layer owns lookup, dedupe and write-back.
func TestPriceBatchPricesWhatItIsGiven(t *testing.T) {
	reg := telemetry.New()
	cache := newMapCache()
	p := mcProblem(7)
	cache.Put(p.ContentKey(), premia.Result{Price: -1})
	e := Engine{Workers: 2, Telemetry: reg, Cache: cache}
	out, err := e.PriceBatch(context.Background(), []*premia.Problem{p, p.Clone(), p.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil || o.Cached || o.Result != want {
			t.Fatalf("duplicate %d = %+v, want a fresh %+v", i, o, want)
		}
	}
	if farmed := reg.Snapshot().Counters["risk.price.farmed"]; farmed != 3 {
		t.Fatalf("farmed %d tasks for 3 problems, want 3", farmed)
	}
	if res, _ := cache.Get(p.ContentKey()); res.Price != -1 || len(cache.m) != 1 {
		t.Fatalf("PriceBatch wrote to the engine's cache: %+v, %d entries", res, len(cache.m))
	}
}

func TestPriceBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := Engine{Workers: 2}
	if _, err := e.PriceBatch(ctx, []*premia.Problem{callProblem(100)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Revaluing twice with a cache reuses every base-scenario price and
// leaves the valuation unchanged.
func TestRevalueBaseCacheReuse(t *testing.T) {
	pf := portfolio.Toy(12)
	scens := []Scenario{
		{Name: "up", Shifts: []Shift{{Param: "S0", Rel: 0.05}}},
		{Name: "down", Shifts: []Shift{{Param: "S0", Rel: -0.05}}},
	}
	reg := telemetry.New()
	e := Engine{Workers: 3, Cache: newMapCache(), Telemetry: reg}
	v1, err := e.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["risk.base_cache_hits"]; hits != 0 {
		t.Fatalf("cold run had %d base cache hits", hits)
	}
	v2, err := e.Revalue(pf, scens)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["risk.base_cache_hits"]; hits != int64(len(pf.Items)) {
		t.Fatalf("warm run base cache hits = %d, want %d", hits, len(pf.Items))
	}
	for i := range v1.Base {
		if v1.Base[i] != v2.Base[i] {
			t.Fatalf("claim %d base value changed through the cache", i)
		}
	}
	for s := range v1.Values {
		for i := range v1.Values[s] {
			if v1.Values[s][i] != v2.Values[s][i] {
				t.Fatalf("scenario %d claim %d value changed", s, i)
			}
		}
	}
}
