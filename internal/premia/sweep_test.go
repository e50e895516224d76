package premia

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// blockForms are the methods whose sweep form draws a group's paths once.
var blockForms = map[string]bool{MethodMCBasket: true, MethodMCLocalVol: true, MethodMCAmerLSM: true}

// sameResult is Result equality to the bit, NaNs included.
func sameResult(a, b Result) bool {
	bits := math.Float64bits
	return bits(a.Price) == bits(b.Price) && bits(a.PriceCI) == bits(b.PriceCI) &&
		bits(a.Delta) == bits(b.Delta) && a.HasDelta == b.HasDelta && bits(a.Work) == bits(b.Work)
}

// TestSweepComputeEqualsCells: a sweep's results are Cell(k).Compute()'s
// to the bit, cell for cell — the closed-form call and put (which price
// through their sweep form), the Monte Carlo basket, local vol and the
// 1-d and basket LSM (which draw their paths once per group of cells and
// induce the cells side by side, at kernel widths 1, 2 and 4), the
// Crank–Nicolson down-and-out call, Brennan–Schwartz and PSOR American
// puts (which price the cells side by side, at widths 1, 2 and 4, and at
// width 0, which the kernel refuses but a PDE never reads, serially and
// without an error), seeded MC_Euro and the paper's Heston LSM (which
// price on a scratch copy) — whatever the cells override: one
// parameter twice, a parameter Base does not carry (it must be gone again
// for the next cell), all six the closed form reads, the volatility of
// either model, the seed or the path count (a block form prices such a
// cell in a kernel run of its own), nothing at all. A cell the kernel
// refuses fails alone, with the error and the one premia.errors count
// Compute gives it, and the cells behind it are unaffected: over a base
// without K, exactly the cells that do not supply one fail, each naming
// it. Base comes out as it went in; the per-method instruments count
// every cell.
func TestSweepComputeEqualsCells(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetProcess(reg)
	defer telemetry.SetProcess(nil)
	call := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 95).Set("T", 1)
	put := call.Clone().SetOption(OptPutEuro).SetMethod(MethodCFPut)
	noK := call.Clone()
	delete(noK.Params, "K")
	mc := call.Clone().SetMethod(MethodMCEuro).Set("paths", 2000).SetSeed(7)
	fd := call.Clone().SetOption(OptPutAmer).SetMethod(MethodFDBS).Set("nodes", 100).Set("steps", 20)
	fdPSOR := fd.Clone().SetMethod(MethodFDPSOR)
	fdBarrier := fd.Clone().SetOption(OptCallDownOut).SetMethod(MethodFDCrank).Set("L", 85)
	basket := call.Clone().SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(MethodMCBasket).
		Set("dim", 5).Set("rho", 0.3).Set("paths", 1500).SetSeed(3)
	lsm := call.Clone().SetOption(OptPutAmer).SetMethod(MethodMCAmerLSM).Set("paths", 600).Set("exdates", 8)
	lsmBasket := basket.Clone().SetOption(OptPutBasketAmer).SetMethod(MethodMCAmerLSM).Set("paths", 600).Set("exdates", 8)
	locVol := call.Clone().SetModel(ModelLocVol).SetMethod(MethodMCLocalVol).
		Set("sigma0", 0.22).Set("skew", -0.15).Set("termslope", 0.02).Set("paths", 1500).Set("mcsteps", 12)
	bases := []*Problem{call, put, noK, mc, sampleProblem()}
	for _, b := range []*Problem{basket, lsm, lsmBasket, locVol} {
		for _, width := range []float64{1, 2, 4} {
			bases = append(bases, b.Clone().Set("threads", width))
		}
	}
	for _, b := range []*Problem{fd, fdPSOR, fdBarrier} {
		for _, width := range []float64{0, 1, 2, 4} {
			bases = append(bases, b.Clone().Set("threads", width))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, base := range bases {
		cells := [][]Override{
			nil,
			{{"S0", 90}, {"S0", 105}},
			{{"divid", 0.02}, {"threads", 2}}, // neither is in Base
			{{"S0", -1}},                      // refused: spot must be positive
			{{"K", 101}},
			{{"S0", 97}, {"sigma", 0.3}, {"r", 0.02}, {"divid", 0.01}, {"K", 99}, {"T", 0.75}},
			{{"sigma", 0.25}, {"sigma0", 0.3}},
			{{"seed", 5}}, // draws of its own
			{{"paths", 1000}},
		}
		for len(cells) < 14 {
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

		runs := reg.Counter("premia.kernel.runs").Value()
		got, errs := sw.Compute()
		// A block form draws once for the cells that share their draws and
		// once each for the seed and the path-count cells.
		if blockForms[base.Method] {
			if d := reg.Counter("premia.kernel.runs").Value() - runs; d != 3 {
				t.Errorf("%s: %d kernel runs for the sweep, want 3", base, d)
			}
		}
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

// TestLSMCellsPerRunFits: the cells one LSM run prices together fit
// lsmMaxStored — however many a sweep has, however large each cell may be
// on its own, and however many of their inductions run at once (one
// workspace each, up to the kernel's width) — and no fewer are cut off
// than must be. The count is pure arithmetic, so nothing here allocates a
// basket.
func TestLSMCellsPerRunFits(t *testing.T) {
	for _, threads := range []int{1, 2, 64} {
		for _, paths := range []int{10, 512, 1e5, 1 << 20, 1 << 23} {
			for _, exDates := range []int{2, 50, 365, 4096} {
				for _, dim := range []int{1, 7, 40, 1024} {
					for _, degree := range []int{1, 3, 12} {
						if lsmFits(paths, exDates, paths*(exDates+degree+4)+kernelShards*exDates*dim) != nil {
							continue // refused alone: never grouped
						}
						per := lsmCellsPerRun(threads, paths, exDates, dim, degree)
						if per < 1 {
							t.Fatalf("threads %d paths %d exdates %d dim %d degree %d: %d cells a run", threads, paths, exDates, dim, degree, per)
						}
						if stored := lsmStored(per, threads, paths, exDates, dim, degree); per > 1 && stored > lsmMaxStored {
							t.Errorf("threads %d paths %d exdates %d dim %d degree %d: %d cells store %d values, over %d",
								threads, paths, exDates, dim, degree, per, stored, lsmMaxStored)
						}
						if lsmStored(per+1, threads, paths, exDates, dim, degree) <= lsmMaxStored {
							t.Errorf("threads %d paths %d exdates %d dim %d degree %d: %d cells a run, but %d fit",
								threads, paths, exDates, dim, degree, per, per+1)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSweepPDE is one claim of the realistic book's American PDE
// class under the base and five market scenarios: a six-cell
// FD_BrennanSchwartz sweep on the book's grid (400 nodes, a time step
// every two days over 4⅓ years), cells priced one after another at
// threads=1 and side by side at threads=2.
func BenchmarkSweepPDE(b *testing.B) {
	t := 1.0/3 + 0.25*16
	benchSweep(b, New().SetModel(ModelBS1D).SetOption(OptPutAmer).SetMethod(MethodFDBS).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("K", 100).Set("T", t).Set("steps", float64(int(t*182)+1)).Set("nodes", 400), "sigma")
}

// BenchmarkSweepBarrierPDE is the same sweep of one claim of the realistic
// book's barrier class: an FD_CrankNicolson down-and-out call, barrier at
// 75 % of the spot, on the book's grid.
func BenchmarkSweepBarrierPDE(b *testing.B) {
	t := 1.0/3 + 0.25*16
	benchSweep(b, New().SetModel(ModelBS1D).SetOption(OptCallDownOut).SetMethod(MethodFDCrank).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("K", 100).Set("T", t).Set("L", 75).Set("steps", float64(int(t*182)+1)).Set("nodes", 400), "sigma")
}

// BenchmarkSweepLocalVol is the same sweep of one claim of the realistic
// book's local-volatility class: an MC_LocalVol call on the book's
// 100-step paths, 10⁵ of its 10⁶ so that an op takes a fraction of a
// second, its six cells evolving each block of shared draws, on one
// kernel goroutine at threads=1 and two at threads=2.
func BenchmarkSweepLocalVol(b *testing.B) {
	benchSweep(b, New().SetModel(ModelLocVol).SetOption(OptCallEuro).SetMethod(MethodMCLocalVol).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).
		Set("sigma0", 0.22).Set("skew", -0.15).Set("termslope", 0.02).
		Set("K", 100).Set("T", 2.6).Set("paths", 1e5).Set("mcsteps", 100), "sigma0")
}

// benchSweep times base under the base and five market scenarios — spot
// ±10 %, the volatility parameter vol at 0.18 and 0.26, the rate +1 pt —
// at threads 1 and 2.
func benchSweep(b *testing.B, base *Problem, vol string) {
	cells := [][]Override{nil, {{"S0", 90}}, {{"S0", 110}}, {{vol, 0.18}}, {{vol, 0.26}}, {{"r", 0.055}}}
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			sw := &Sweep{Base: base.Clone().Set("threads", float64(threads)), Cells: cells}
			for i := 0; i < b.N; i++ {
				if _, errs := sw.Compute(); errs != nil {
					b.Fatal(errs)
				}
			}
		})
	}
}
