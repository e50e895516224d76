package premia

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// sameResult is Result equality to the bit, NaNs included.
func sameResult(a, b Result) bool {
	bits := math.Float64bits
	return bits(a.Price) == bits(b.Price) && bits(a.PriceCI) == bits(b.PriceCI) &&
		bits(a.Delta) == bits(b.Delta) && a.HasDelta == b.HasDelta && bits(a.Work) == bits(b.Work)
}

// TestSweepComputeEqualsCells: a sweep's results are Cell(k).Compute()'s
// to the bit, cell for cell — the closed-form call and put (which price
// through their sweep form), seeded Monte Carlo, a PDE, the paper's
// Heston LSM (which price on a scratch copy) — whatever the cells
// override: one parameter twice, a parameter Base does not carry (it must
// be gone again for the next cell), all six the closed form reads,
// nothing at all. A cell the kernel refuses fails alone, with the error
// and the one premia.errors count Compute gives it, and the cells behind
// it are unaffected: over a base without K, exactly the cells that do not
// supply one fail, each naming it. Base comes out as it went in; the
// per-method instruments count every cell.
func TestSweepComputeEqualsCells(t *testing.T) {
	reg := telemetry.New()
	SetTelemetry(reg)
	defer SetTelemetry(nil)
	call := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 95).Set("T", 1)
	put := call.Clone().SetOption(OptPutEuro).SetMethod(MethodCFPut)
	noK := call.Clone()
	delete(noK.Params, "K")
	mc := call.Clone().SetMethod(MethodMCEuro).Set("paths", 2000).SetSeed(7)
	fd := call.Clone().SetOption(OptPutAmer).SetMethod(MethodFDBS).Set("nodes", 100).Set("steps", 20)
	rng := rand.New(rand.NewSource(11))
	for _, base := range []*Problem{call, put, noK, mc, fd, sampleProblem()} {
		cells := [][]Override{
			nil,
			{{"S0", 90}, {"S0", 105}},
			{{"divid", 0.02}, {"threads", 2}}, // neither is in Base
			{{"S0", -1}},                      // refused: spot must be positive
			{{"K", 101}},
			{{"S0", 97}, {"sigma", 0.3}, {"r", 0.02}, {"divid", 0.01}, {"K", 99}, {"T", 0.75}},
		}
		for len(cells) < 12 {
			cells = append(cells, []Override{{"S0", 80 + 40*rng.Float64()}, {"r", 0.01 + 0.05*rng.Float64()}, {"T", 0.5 + rng.Float64()}})
		}
		// refused says which cells must fail: the negative spot, and over a
		// base without K every cell that does not supply one.
		_, hasK := base.Params["K"]
		refused := func(k int) bool {
			return k == 3 || !hasK && !slices.ContainsFunc(cells[k], func(o Override) bool { return o.Param == "K" })
		}
		key, params := base.ContentKey(), maps.Clone(base.Params)
		sw := &Sweep{Base: base, Cells: cells}
		if sw.Kind() != nsp.KindList || !sw.Equal(&Sweep{Base: base.Clone(), Cells: cells}) || sw.Equal(&Sweep{Base: base, Cells: cells[1:]}) {
			t.Errorf("%s: a sweep must equal the same cells over an equal base, and nothing else", base)
		}
		if _, err := nsp.Serialize(sw); err == nil {
			t.Errorf("%s: a sweep serialized; it has no wire form", base)
		}

		// The cells one by one come first, so the counters can tell the two
		// passes apart.
		work0 := reg.Gauge("premia.work_units." + base.Method).Value()
		want, wantErr := make([]Result, len(cells)), make([]error, len(cells))
		for k := range cells {
			want[k], wantErr[k] = sw.Cell(k).Compute()
		}
		computes, failures := reg.Counter("premia.computes").Value(), reg.Counter("premia.errors").Value()
		timed := reg.Histogram("premia.compute_seconds." + base.Method).Count()
		work := reg.Gauge("premia.work_units." + base.Method).Value()

		got, errs := sw.Compute()
		if len(got) != len(cells) || len(errs) != len(cells) {
			t.Fatalf("%s: %d results and %d errors for %d cells", base, len(got), len(errs), len(cells))
		}
		failed := int64(0)
		for k := range cells {
			if (errs[k] == nil) != (wantErr[k] == nil) || (errs[k] != nil && errs[k].Error() != wantErr[k].Error()) {
				t.Errorf("%s cell %d: sweep error %v, Cell(k).Compute() error %v", base, k, errs[k], wantErr[k])
			}
			if !sameResult(got[k], want[k]) {
				t.Errorf("%s cell %d: sweep %+v, Cell(k).Compute() %+v", base, k, got[k], want[k])
			}
			if (errs[k] != nil) != refused(k) {
				t.Errorf("%s cell %d: error %v, want one: %v", base, k, errs[k], refused(k))
			}
			if errs[k] != nil && k != 3 && !strings.Contains(errs[k].Error(), `missing parameter "K"`) {
				t.Errorf("%s cell %d: %v, want the missing strike named", base, k, errs[k])
			}
			if errs[k] != nil {
				failed++
			}
		}
		if base.ContentKey() != key || !maps.Equal(base.Params, params) {
			t.Errorf("%s: Compute changed its Base: %v, was %v", base, base.Params, params)
		}
		n := int64(len(cells))
		if d := reg.Counter("premia.computes").Value() - computes; d != n {
			t.Errorf("%s: premia.computes grew by %d over %d cells", base, d, n)
		}
		if d := reg.Histogram("premia.compute_seconds."+base.Method).Count() - timed; d != n {
			t.Errorf("%s: premia.compute_seconds observed %d of %d cells", base, d, n)
		}
		if d := reg.Counter("premia.errors").Value() - failures; d != failed {
			t.Errorf("%s: premia.errors grew by %d for %d failed cells", base, d, failed)
		}
		if d := reg.Gauge("premia.work_units."+base.Method).Value() - work; math.Abs(d-(work-work0)) > 1e-9*work {
			t.Errorf("%s: premia.work_units grew by %v, the cells one by one added %v", base, d, work-work0)
		}
	}

	// A triple no method accepts is every cell's failure, counted per cell.
	failures := reg.Counter("premia.errors").Value()
	bad := &Sweep{Base: call.Clone().SetOption(OptPutAmer), Cells: make([][]Override, 3)}
	_, want := bad.Base.Compute()
	got, errs := bad.Compute()
	for k := range errs {
		if want == nil || errs[k] == nil || errs[k].Error() != want.Error() || got[k] != (Result{}) {
			t.Errorf("cell %d of an invalid triple: %+v, %v; Compute says %v", k, got[k], errs[k], want)
		}
	}
	if d := reg.Counter("premia.errors").Value() - failures; d != 4 {
		t.Errorf("premia.errors grew by %d, want 1 for Compute and 3 for the sweep's cells", d)
	}

	// A sweep that prices throughout reports no error slice at all.
	if _, errs := (&Sweep{Base: call, Cells: [][]Override{nil, {{"K", 90}}}}).Compute(); errs != nil {
		t.Errorf("a clean sweep returned errors %v", errs)
	}
}
