package premia

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"riskbench/internal/mathutil"
)

func TestCRRConvergesToBS(t *testing.T) {
	want, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for _, steps := range []int{64, 256, 1024} {
		res, err := bsProblem(OptCallEuro, MethodTreeCRR, 100, 1).Set("steps", float64(steps)).Compute()
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(res.Price - want.Price)
		if e > prevErr*1.2 { // allow CRR oscillation but demand overall decay
			t.Errorf("steps=%d: error %v did not shrink (prev %v)", steps, e, prevErr)
		}
		prevErr = e
	}
	res, err := bsProblem(OptCallEuro, MethodTreeCRR, 100, 1).Set("steps", 2048).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-want.Price) > 0.01 {
		t.Errorf("CRR(2048) = %v, BS = %v", res.Price, want.Price)
	}
	if math.Abs(res.Delta-want.Delta) > 0.005 {
		t.Errorf("CRR delta = %v, BS delta = %v", res.Delta, want.Delta)
	}
}

func TestCRRPutEuro(t *testing.T) {
	want, err := bsProblem(OptPutEuro, MethodCFPut, 110, 0.5).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsProblem(OptPutEuro, MethodTreeCRR, 110, 0.5).Set("steps", 2048).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-want.Price) > 0.01 {
		t.Errorf("CRR put = %v, BS = %v", res.Price, want.Price)
	}
}

func TestCRRAmericanAboveEuropean(t *testing.T) {
	euro, err := bsProblem(OptPutEuro, MethodTreeCRR, 100, 1).Set("steps", 500).Compute()
	if err != nil {
		t.Fatal(err)
	}
	amer, err := bsProblem(OptPutAmer, MethodTreeCRR, 100, 1).Set("steps", 500).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if amer.Price < euro.Price-1e-10 {
		t.Errorf("American put %v below European %v", amer.Price, euro.Price)
	}
	// With r > 0 the early-exercise premium is strictly positive for ITM puts.
	euroITM, _ := bsProblem(OptPutEuro, MethodTreeCRR, 130, 1).Set("steps", 500).Compute()
	amerITM, _ := bsProblem(OptPutAmer, MethodTreeCRR, 130, 1).Set("steps", 500).Compute()
	if amerITM.Price <= euroITM.Price {
		t.Errorf("ITM American put %v not above European %v", amerITM.Price, euroITM.Price)
	}
	// American put dominates immediate exercise.
	if amerITM.Price < 30 {
		t.Errorf("American put %v below intrinsic 30", amerITM.Price)
	}
}

func TestFDCrankNicolsonEuroMatchesCF(t *testing.T) {
	for _, tc := range []struct {
		option, method string
		k              float64
	}{
		{OptCallEuro, MethodCFCall, 100},
		{OptCallEuro, MethodCFCall, 120},
		{OptPutEuro, MethodCFPut, 100},
		{OptPutEuro, MethodCFPut, 80},
	} {
		want, err := bsProblem(tc.option, tc.method, tc.k, 1).Compute()
		if err != nil {
			t.Fatal(err)
		}
		res, err := bsProblem(tc.option, MethodFDCrank, tc.k, 1).
			Set("nodes", 600).Set("steps", 400).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Price-want.Price) > 0.01 {
			t.Errorf("%s K=%v: FD = %v, CF = %v", tc.option, tc.k, res.Price, want.Price)
		}
		if math.Abs(res.Delta-want.Delta) > 0.005 {
			t.Errorf("%s K=%v: FD delta = %v, CF delta = %v", tc.option, tc.k, res.Delta, want.Delta)
		}
	}
}

// TestFDWideGridRefusesCalls: at a volatility whose grid's top node
// overflows a float64 (the extreme corner of an admitted market scenario)
// a Crank–Nicolson call, vanilla or down-and-out, is a pricing error
// naming the grid, not a NaN; the put, whose payoff vanishes up there,
// still prices.
func TestFDWideGridRefusesCalls(t *testing.T) {
	for _, p := range []*Problem{bsProblem(OptCallEuro, MethodFDCrank, 100, 5), barrierProblem(MethodFDCrank, 100, 5, 75)} {
		res, err := p.Set("sigma", 38).Set("steps", 16).Compute()
		if err == nil || !strings.Contains(err.Error(), "FD grid reaches ln S") {
			t.Errorf("%s at sigma 38: %+v, %v; want the grid refused", p, res, err)
		}
	}
	put, err := bsProblem(OptPutEuro, MethodFDCrank, 100, 5).Set("sigma", 38).Set("steps", 16).Compute()
	if err != nil || math.IsNaN(put.Price) || math.IsInf(put.Price, 0) {
		t.Errorf("put at sigma 38: %+v, %v; want a finite price", put, err)
	}
}

// TestTreeWideLatticeRefused: a lattice whose bottom node S0·d^n
// underflows priced a call at 0 with no error (sigma 38 over 5 years,
// where the closed form says 90.5). Both trees refuse it, and a wide
// lattice that still fits in a float64 agrees with CF_Call within the
// oracle's tree tolerance: CRR at sigma 20 over 2 years. The trinomial's
// Kamrad–Ritchken tilt is first order in the drift, so past a vol of a
// few hundred percent it is off by more than that tolerance at any step
// count that fits; its row holds the widest vol it prices that well.
func TestTreeWideLatticeRefused(t *testing.T) {
	const treeTol = 2e-3 // relative, as in TestClosedFormAgreesWithNumerics
	for _, c := range []struct {
		method string
		// refuseSteps puts the sigma 38 lattice past the trinomial's
		// probability check, so that the range is what refuses it.
		refuseSteps    float64
		fitSigma, fitT float64
		fitSteps       float64
	}{
		{MethodTreeCRR, 512, 20, 2, 512},
		{MethodTreeTrinomial, 4096, 1, 2, 1024},
	} {
		t.Run(c.method, func(t *testing.T) {
			res, err := bsProblem(OptCallEuro, c.method, 100, 5).Set("sigma", 38).Set("steps", c.refuseSteps).Compute()
			if err == nil || !strings.Contains(err.Error(), "outside the normal float64 range") {
				t.Errorf("call at sigma 38, T 5: %+v, %v; want the lattice refused", res, err)
			}
			cf, err := bsProblem(OptCallEuro, MethodCFCall, 100, c.fitT).Set("sigma", c.fitSigma).Compute()
			if err != nil {
				t.Fatal(err)
			}
			tree, err := bsProblem(OptCallEuro, c.method, 100, c.fitT).Set("sigma", c.fitSigma).Set("steps", c.fitSteps).Compute()
			if err != nil {
				t.Fatalf("call at sigma %v, T %v: %v", c.fitSigma, c.fitT, err)
			}
			if d := math.Abs(tree.Price - cf.Price); !(d <= treeTol*cf.Price) {
				t.Errorf("call at sigma %v, T %v: %s %v, CF_Call %v (off by %.3g)", c.fitSigma, c.fitT, c.method, tree.Price, cf.Price, d)
			}
		})
	}
}

func TestFDBarrierMatchesCF(t *testing.T) {
	for _, l := range []float64{80, 90, 95} {
		want, err := barrierProblem(MethodCFCallDownOut, 100, 1, l).Compute()
		if err != nil {
			t.Fatal(err)
		}
		res, err := barrierProblem(MethodFDCrank, 100, 1, l).
			Set("nodes", 800).Set("steps", 400).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Price-want.Price) > 0.02*math.Max(want.Price, 1) {
			t.Errorf("L=%v: FD barrier = %v, CF = %v", l, res.Price, want.Price)
		}
	}
}

func TestFDAmericanMethodsAgree(t *testing.T) {
	bs, err := bsProblem(OptPutAmer, MethodFDBS, 100, 1).
		Set("nodes", 400).Set("steps", 200).Compute()
	if err != nil {
		t.Fatal(err)
	}
	psor, err := bsProblem(OptPutAmer, MethodFDPSOR, 100, 1).
		Set("nodes", 400).Set("steps", 200).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bs.Price-psor.Price) > 5e-3 {
		t.Errorf("Brennan–Schwartz %v vs PSOR %v", bs.Price, psor.Price)
	}
	crr, err := bsProblem(OptPutAmer, MethodTreeCRR, 100, 1).Set("steps", 2000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bs.Price-crr.Price) > 0.02 {
		t.Errorf("FD American %v vs CRR %v", bs.Price, crr.Price)
	}
}

// TestPDESingularStepFailsAtItsStep: a run builds and eliminates its step
// matrix at the first step of each theta, so a matrix singular only at
// theta=1 fails the run at step 0, one singular only at Crank–Nicolson's
// theta=½ at step 2, the first step that solves with it, under each of
// the three solves.
func TestPDESingularStepFailsAtItsStep(t *testing.T) {
	// A diagonal matrix 1 − θ·dt·β: dt = ¼ and β = 4 or 8 make it exactly
	// zero at θ = 1 or θ = ½.
	for _, c := range []struct {
		beta float64
		step string
	}{{4, "step 0:"}, {8, "step 2:"}} {
		for _, solve := range []string{"Thomas", "Brennan–Schwartz", "PSOR"} {
			g := pdeGrid{dx: 0.1, mi: 10, n: 5, dt: 0.25}
			ps := newPDESolver(bsParams{S0: 1, Sigma: 0.2}, g, func(float64) float64 { return 1 }, func(float64) (float64, float64) { return 0, 0 })
			ps.alpha, ps.beta, ps.gamma = 0, c.beta, 0
			if solve != "Thomas" {
				ps.psi = make([]float64, g.mi-1)
			}
			if solve == "PSOR" {
				ps.psor = &psorParams{omega: 1.2, tol: 1e-9, maxIter: 100}
			}
			_, err := ps.run()
			if !errors.Is(err, mathutil.ErrSingular) || !strings.Contains(err.Error(), c.step) {
				t.Errorf("β=%v, %s: %v, want ErrSingular at %s", c.beta, solve, err, c.step)
			}
		}
	}
}

func TestFDAmericanDominatesEuropeanAndIntrinsic(t *testing.T) {
	for _, k := range []float64{80.0, 100, 120, 140} {
		euro, err := bsProblem(OptPutEuro, MethodCFPut, k, 1).Compute()
		if err != nil {
			t.Fatal(err)
		}
		amer, err := bsProblem(OptPutAmer, MethodFDBS, k, 1).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if amer.Price < euro.Price-0.01 {
			t.Errorf("K=%v: American %v below European %v", k, amer.Price, euro.Price)
		}
		if intrinsic := math.Max(k-100, 0); amer.Price < intrinsic-1e-6 {
			t.Errorf("K=%v: American %v below intrinsic %v", k, amer.Price, intrinsic)
		}
	}
}

func TestMCEuroWithinCI(t *testing.T) {
	want, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 200000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.PriceCI <= 0 {
		t.Fatal("MC did not report a confidence interval")
	}
	if diff := math.Abs(res.Price - want.Price); diff > 3*res.PriceCI {
		t.Errorf("MC %v ± %v vs CF %v (off by %v)", res.Price, res.PriceCI, want.Price, diff)
	}
	if math.Abs(res.Delta-want.Delta) > 0.01 {
		t.Errorf("MC pathwise delta %v vs CF %v", res.Delta, want.Delta)
	}
}

func TestMCEuroPutWithinCI(t *testing.T) {
	want, err := bsProblem(OptPutEuro, MethodCFPut, 110, 2).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsProblem(OptPutEuro, MethodMCEuro, 110, 2).Set("paths", 200000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Price - want.Price); diff > 3*res.PriceCI {
		t.Errorf("MC put %v ± %v vs CF %v", res.Price, res.PriceCI, want.Price)
	}
}

func TestMCBarrierMatchesCF(t *testing.T) {
	want, err := barrierProblem(MethodCFCallDownOut, 100, 1, 90).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := barrierProblem(MethodMCEuro, 100, 1, 90).
		Set("paths", 100000).Set("mcsteps", 50).Compute()
	if err != nil {
		t.Fatal(err)
	}
	// The Brownian-bridge correction removes most discretisation bias.
	if diff := math.Abs(res.Price - want.Price); diff > 4*res.PriceCI+0.03 {
		t.Errorf("MC barrier %v ± %v vs CF %v", res.Price, res.PriceCI, want.Price)
	}
}

func TestMCDeterministicAcrossRuns(t *testing.T) {
	p := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 10000)
	a, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Price != b.Price {
		t.Errorf("same seed produced different prices: %v vs %v", a.Price, b.Price)
	}
	c, err := p.Clone().Set("seed", 999).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Price == c.Price {
		t.Error("different seeds produced identical prices")
	}
}

func basketProblem(dim int) *Problem {
	return New().
		SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(MethodMCBasket).
		Set("S0", 100).Set("r", 0.05).Set("divid", 0).Set("sigma", 0.25).
		Set("dim", float64(dim)).Set("rho", 0.3).
		Set("K", 100).Set("T", 1)
}

func TestMCBasketDim1MatchesBSPut(t *testing.T) {
	want, err := New().SetModel(ModelBS1D).SetOption(OptPutEuro).SetMethod(MethodCFPut).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).Set("K", 100).Set("T", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []float64{mcDefaultSeed, 1, 2} {
		res, err := basketProblem(1).Set("paths", 200000).Set("seed", seed).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(res.Price - want.Price); diff > 3*res.PriceCI {
			t.Errorf("seed %v: basket dim=1 %v ± %v vs BS put %v", seed, res.Price, res.PriceCI, want.Price)
		}
	}
}

func TestMCBasketDiversification(t *testing.T) {
	// With ρ<1 the basket is less volatile than a single asset, so the
	// basket put is worth less than the one-dimensional put.
	single, err := basketProblem(1).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	basket, err := basketProblem(40).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if basket.Price >= single.Price {
		t.Errorf("40-asset basket put %v not below single-asset put %v", basket.Price, single.Price)
	}
	if basket.Price <= 0 {
		t.Errorf("basket put price %v not positive", basket.Price)
	}
}

// TestMCLocalVolFlatSurfaceMatchesBS: with skew 0 and termslope 0 the
// surface is the constant σ0, the log-Euler step is exact in law, and
// MC_LocalVol prices CF_Call and CF_Put within 3.5 of its 95 % half-widths
// on seeded random admitted parameters.
func TestMCLocalVolFlatSurfaceMatchesBS(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	worst := 0.0
	for i := 0; i < 12; i++ {
		s0 := 50 + 100*rng.Float64()
		c := bsCase{
			S0: s0, R: -0.01 + 0.08*rng.Float64(), Q: 0.04 * rng.Float64(), Sigma: 0.1 + 0.5*rng.Float64(),
			K: s0 * (0.8 + 0.4*rng.Float64()), T: 0.2 + 2.8*rng.Float64(),
		}
		for _, v := range []struct{ option, method string }{{OptCallEuro, MethodCFCall}, {OptPutEuro, MethodCFPut}} {
			want, err := c.problem(v.option, v.method).Compute()
			if err != nil {
				t.Fatal(err)
			}
			res, err := New().SetModel(ModelLocVol).SetOption(v.option).SetMethod(MethodMCLocalVol).
				Set("S0", c.S0).Set("r", c.R).Set("divid", c.Q).
				Set("sigma0", c.Sigma).Set("skew", 0).Set("termslope", 0).
				Set("K", c.K).Set("T", c.T).
				Set("paths", 20000).Set("mcsteps", 16).Set("seed", float64(i+1)).Compute()
			if err != nil {
				t.Fatal(err)
			}
			d := math.Abs(res.Price - want.Price)
			worst = max(worst, d/res.PriceCI)
			if !(d <= 3.5*res.PriceCI) {
				t.Errorf("%+v %s: flat local vol %v ± %v, %s %v (off by %.2f half-widths)", c, v.option, res.Price, res.PriceCI, v.method, want.Price, d/res.PriceCI)
			}
		}
	}
	t.Logf("worst error %.2f half-widths", worst)
}

// localVolSpotPrices is localVolPrices as it stepped the spot before it
// stepped log-moneyness: σ read at S through ln(S/S0), S multiplied by an
// exp every step. It is the reference the log-moneyness kernel is held
// to; clamped counts the steps whose volatility each clamp cut.
func localVolSpotPrices(cells []localVolCell, clamped *[2]atomic.Int64) []Result {
	c0 := cells[0]
	steps := c0.steps
	block := max(soaBlock/steps, 1)
	vol := func(m lvParams, t, s float64) float64 {
		if s <= 0 {
			return lvMinVol
		}
		v := m.Sigma0 * (1 + m.Skew*math.Log(s/m.S0)) * (1 + m.Term*t)
		if v < lvMinVol {
			clamped[0].Add(1)
			return lvMinVol
		}
		if v > lvMaxVol {
			clamped[1].Add(1)
			return lvMaxVol
		}
		return v
	}
	accs := c0.k.paths(c0.paths, len(cells), func(rng *mathutil.RNG, n int, accs []mathutil.Welford, sc *kernelScratch) {
		g := sc.floats(block * steps)
		for done := 0; done < n; done += block {
			bn := min(block, n-done)
			rng.NormVec(g[:bn*steps])
			for j := range cells {
				c := &cells[j]
				m := c.m
				for i := 0; i < bn; i++ {
					row := g[i*steps : (i+1)*steps]
					s := m.S0
					t := 0.0
					for k := 0; k < steps; k++ {
						sig := vol(m, t, s)
						s *= mathutil.Exp((m.R-m.Div-0.5*sig*sig)*c.dt + sig*c.sqdt*row[k])
						t += c.dt
					}
					accs[j].Add(c.df * vanillaPayoff(c.isCall, s, c.strike))
				}
			}
		}
	})
	results := make([]Result, len(cells))
	for j := range cells {
		results[j] = Result{Price: accs[j].Mean(), PriceCI: accs[j].HalfWidth95()}
	}
	return results
}

// TestLocalVolLogMoneynessMatchesSpotSteps holds the log-moneyness kernel
// to the spot-space steps it replaced: the same log-Euler scheme on the
// same normals in the same order, so prices differ in their last bits
// only. 48 seeded admitted problems, calls and puts, each priced with a
// spot and a volatility scenario on its draws, at threads 1 and 2, agree
// within 1e-9 relative; the surfaces reach steep enough skews and term
// slopes that both clamps cut.
func TestLocalVolLogMoneynessMatchesSpotSteps(t *testing.T) {
	const tol = 1e-9 // relative (seen: 8.8e-16)
	rng := rand.New(rand.NewSource(47))
	var clamped [2]atomic.Int64
	worst := 0.0
	for i := 0; i < 48; i++ {
		s0 := 50 + 100*rng.Float64()
		option := OptCallEuro
		if i%2 == 1 {
			option = OptPutEuro
		}
		base := New().SetModel(ModelLocVol).SetOption(option).SetMethod(MethodMCLocalVol).
			Set("S0", s0).Set("r", -0.01+0.08*rng.Float64()).Set("divid", 0.04*rng.Float64()).
			Set("sigma0", 0.1+0.8*rng.Float64()).Set("skew", -3+6*rng.Float64()).Set("termslope", -0.2+0.7*rng.Float64()).
			Set("K", s0*(0.8+0.4*rng.Float64())).Set("T", 0.25+2.75*rng.Float64()).
			Set("paths", 1024).Set("mcsteps", float64(8+rng.Intn(57))).Set("seed", float64(i+1))
		for _, threads := range []int{1, 2} {
			sw := &Sweep{Base: base.Clone().Set("threads", float64(threads)),
				Cells: [][]Override{nil, {{"S0", 0.9 * s0}}, {{"sigma0", 1.25 * base.Params["sigma0"]}}}}
			cells := make([]localVolCell, len(sw.Cells))
			for k := range cells {
				var err error
				if cells[k], err = localVolOf(sw.Cell(k)); err != nil {
					t.Fatal(err)
				}
			}
			got, errs := localVolPrices(cells)
			if errs != nil {
				t.Fatal(errs)
			}
			want := localVolSpotPrices(cells, &clamped)
			for k := range cells {
				rel := math.Abs(got[k].Price-want[k].Price) / want[k].Price
				worst = max(worst, rel)
				if !(rel <= tol) {
					t.Errorf("%v threads=%d cell %d: log-moneyness %v, spot steps %v (%.3g relative)", sw.Cell(k).Params, threads, k, got[k].Price, want[k].Price, rel)
				}
			}
		}
	}
	if clamped[0].Load() == 0 || clamped[1].Load() == 0 {
		t.Errorf("the floor cut %d steps and the cap %d: a clamp went untested", clamped[0].Load(), clamped[1].Load())
	}
	t.Logf("worst relative difference %.3g; the floor cut %d steps, the cap %d", worst, clamped[0].Load(), clamped[1].Load())
}

func TestMCLocalVolSkewEffect(t *testing.T) {
	// Negative skew fattens the left tail, raising OTM put prices relative
	// to the flat surface with the same at-the-money vol.
	base := func(skew float64) float64 {
		res, err := New().SetModel(ModelLocVol).SetOption(OptPutEuro).SetMethod(MethodMCLocalVol).
			Set("S0", 100).Set("r", 0.03).Set("sigma0", 0.25).Set("skew", skew).
			Set("K", 70).Set("T", 1).Set("paths", 150000).Set("mcsteps", 64).Compute()
		if err != nil {
			t.Fatal(err)
		}
		return res.Price
	}
	flat := base(0)
	skewed := base(-0.3)
	if skewed <= flat {
		t.Errorf("negative skew did not raise OTM put: flat %v, skewed %v", flat, skewed)
	}
}

func TestLSMAmericanPutMatchesFD(t *testing.T) {
	want, err := bsProblem(OptPutAmer, MethodFDBS, 100, 1).
		Set("nodes", 600).Set("steps", 300).Compute()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []float64{mcDefaultSeed, 1, 2} {
		res, err := bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1).
			Set("paths", 50000).Set("exdates", 50).Set("seed", seed).Compute()
		if err != nil {
			t.Fatal(err)
		}
		// LSM is biased low but must land within ~1.5% of the PDE value.
		if math.Abs(res.Price-want.Price) > 0.015*want.Price {
			t.Errorf("seed %v: LSM %v vs FD %v", seed, res.Price, want.Price)
		}
	}
}

func TestLSMAmericanBounds(t *testing.T) {
	euro, err := bsProblem(OptPutEuro, MethodCFPut, 110, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsProblem(OptPutAmer, MethodMCAmerLSM, 110, 1).
		Set("paths", 20000).Set("exdates", 25).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Price < euro.Price-3*res.PriceCI-0.05 {
		t.Errorf("LSM American %v below European %v", res.Price, euro.Price)
	}
	if res.Price < 10-1e-9 { // intrinsic K-S = 10
		t.Errorf("LSM American %v below intrinsic 10", res.Price)
	}
}

func TestLSMBasketAmerican(t *testing.T) {
	// 7-dimensional American basket put (the paper's hardest product).
	p := New().SetModel(ModelBSND).SetOption(OptPutBasketAmer).SetMethod(MethodMCAmerLSM).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).
		Set("dim", 7).Set("rho", 0.3).
		Set("K", 100).Set("T", 1).
		Set("paths", 20000).Set("exdates", 25)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	// The American basket put must dominate its European counterpart.
	euro, err := New().SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(MethodMCBasket).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.25).
		Set("dim", 7).Set("rho", 0.3).
		Set("K", 100).Set("T", 1).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Price < euro.Price-3*(res.PriceCI+euro.PriceCI) {
		t.Errorf("American basket %v below European basket %v", res.Price, euro.Price)
	}
	if res.Price <= 0 || res.Price >= 100 {
		t.Errorf("basket American price out of bounds: %v", res.Price)
	}
}

func TestAlfonsiLSMHestonAmerican(t *testing.T) {
	// The paper's Nsp example: PutAmer in Heston via
	// MC_AM_Alfonsi_LongstaffSchwartz. Must dominate the European put.
	euro, err := hestonProblem(OptPutEuro, MethodCFHeston).Compute()
	if err != nil {
		t.Fatal(err)
	}
	amer, err := hestonProblem(OptPutAmer, MethodMCAmerAlfonsi).
		Set("paths", 30000).Set("exdates", 50).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if amer.Price < euro.Price-3*amer.PriceCI-0.05 {
		t.Errorf("Heston American %v below European %v", amer.Price, euro.Price)
	}
	if amer.Price <= 0 || amer.Price >= 100 {
		t.Errorf("Heston American price out of bounds: %v", amer.Price)
	}
}

func TestAlfonsiStepPositivity(t *testing.T) {
	// The Alfonsi scheme must keep the variance non-negative under the
	// Feller-satisfying parameters for arbitrary shocks.
	kappa, theta, sigma := 2.0, 0.04, 0.3 // 4κθ = 0.32 ≥ σ² = 0.09
	v := 0.04
	for _, dw := range []float64{-3, -1, -0.1, 0, 0.1, 1, 3} {
		vn := alfonsiStep(v, kappa, theta, sigma, 0.01, dw*0.1)
		if vn < 0 || math.IsNaN(vn) {
			t.Fatalf("alfonsiStep(%v, dw=%v) = %v", v, dw, vn)
		}
	}
	// Mean reversion: from far above theta the drift pulls down.
	far := alfonsiStep(1.0, kappa, theta, sigma, 0.05, 0)
	if far >= 1.0 {
		t.Errorf("no mean reversion from above: %v", far)
	}
}

func TestHestonMCFellerViolatedFallback(t *testing.T) {
	// 4κθ < σᵥ² forces the full-truncation Euler fallback; the price must
	// still be finite, positive and parity-consistent with CF_Heston.
	p := hestonProblem(OptCallEuro, MethodMCHeston).
		Set("kappa", 0.5).Set("theta", 0.02).Set("sigmaV", 1.0).
		Set("paths", 20000).Set("mcsteps", 100)
	res, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Price) || res.Price <= 0 || res.Price >= 100 {
		t.Fatalf("fallback price out of bounds: %v", res.Price)
	}
	cf, err := hestonProblem(OptCallEuro, MethodCFHeston).
		Set("kappa", 0.5).Set("theta", 0.02).Set("sigmaV", 1.0).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-cf.Price) > 4*res.PriceCI/1.96+0.25 {
		t.Errorf("fallback MC %v ± %v far from CF %v", res.Price, res.PriceCI, cf.Price)
	}
}

func TestWorkFieldsPopulated(t *testing.T) {
	// Every method must report a positive abstract work figure; the
	// cluster simulator depends on it.
	cases := []*Problem{
		bsProblem(OptCallEuro, MethodCFCall, 100, 1),
		bsProblem(OptPutAmer, MethodFDBS, 100, 1).Set("nodes", 50).Set("steps", 20),
		bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 100),
		basketProblem(3).Set("paths", 100),
	}
	for _, p := range cases {
		res, err := p.Compute()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Work <= 0 {
			t.Errorf("%s: Work = %v", p, res.Work)
		}
	}
}

func TestTrinomialConvergesToBS(t *testing.T) {
	want, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsProblem(OptCallEuro, MethodTreeTrinomial, 100, 1).Set("steps", 1000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-want.Price) > 0.01 {
		t.Errorf("trinomial = %v, BS = %v", res.Price, want.Price)
	}
	if math.Abs(res.Delta-want.Delta) > 0.005 {
		t.Errorf("trinomial delta = %v, BS = %v", res.Delta, want.Delta)
	}
}

func TestTrinomialMatchesCRRAmerican(t *testing.T) {
	crr, err := bsProblem(OptPutAmer, MethodTreeCRR, 110, 1).Set("steps", 2000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	tri, err := bsProblem(OptPutAmer, MethodTreeTrinomial, 110, 1).Set("steps", 1000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(crr.Price-tri.Price) > 0.02 {
		t.Errorf("CRR %v vs trinomial %v", crr.Price, tri.Price)
	}
}

func TestTrinomialAmericanDominatesEuropean(t *testing.T) {
	euro, err := bsProblem(OptPutEuro, MethodTreeTrinomial, 120, 1).Set("steps", 400).Compute()
	if err != nil {
		t.Fatal(err)
	}
	amer, err := bsProblem(OptPutAmer, MethodTreeTrinomial, 120, 1).Set("steps", 400).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if amer.Price < euro.Price {
		t.Errorf("American %v below European %v", amer.Price, euro.Price)
	}
}

// TestTrinomialRefusesMissedForward: past a few hundred percent of vol the
// Kamrad–Ritchken branches stop carrying the forward, and the tree used to
// price a call at 1.6 against CF_Call's 90.5 (sigma 5, T 5, 256 steps) or
// 14 % off (sigma 5, T 2, 1 024 steps) without an error. Those lattices
// are refused; the ordinary ones, a coarse 8-step tree included, still
// price.
func TestTrinomialRefusesMissedForward(t *testing.T) {
	for _, c := range []struct {
		sigma, T, steps float64
		refused         bool
	}{
		{5, 5, 256, true},
		{5, 2, 1024, true},
		{0.2, 1, 256, false},
		{1, 2, 1024, false},
		{2, 2, 1024, false},
		{0.2, 10, 8, false},
	} {
		res, err := bsProblem(OptCallEuro, MethodTreeTrinomial, 100, c.T).Set("sigma", c.sigma).Set("steps", c.steps).Compute()
		switch {
		case c.refused && (err == nil || !strings.Contains(err.Error(), "miss the forward")):
			t.Errorf("sigma %v, T %v, %v steps: %+v, %v; want the lattice refused", c.sigma, c.T, c.steps, res, err)
		case !c.refused && err != nil:
			t.Errorf("sigma %v, T %v, %v steps: %v", c.sigma, c.T, c.steps, err)
		}
	}
}

func TestTrinomialRejectsBadParams(t *testing.T) {
	if _, err := bsProblem(OptCallEuro, MethodTreeTrinomial, 100, 1).Set("steps", 0).Compute(); err == nil {
		t.Error("steps=0 accepted")
	}
	if _, err := bsProblem(OptCallEuro, MethodTreeTrinomial, 100, 1).Set("lambda", 0.5).Compute(); err == nil {
		t.Error("lambda<1 accepted")
	}
	// Huge drift with one step pushes probabilities out of range.
	p := bsProblem(OptCallEuro, MethodTreeTrinomial, 100, 10).Set("steps", 1).Set("r", 3.0)
	if _, err := p.Compute(); err == nil {
		t.Error("degenerate probabilities accepted")
	}
}

func TestMCAntitheticReducesVariance(t *testing.T) {
	plain, err := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 100000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	anti, err := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).
		Set("paths", 100000).Set("antithetic", 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	// Same total path budget (the antithetic run draws half as many
	// normals); the CI must shrink for the monotone call payoff.
	if anti.PriceCI >= plain.PriceCI {
		t.Errorf("antithetic CI %v not below plain CI %v", anti.PriceCI, plain.PriceCI)
	}
	want, err := bsProblem(OptCallEuro, MethodCFCall, 100, 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(anti.Price - want.Price); diff > 4*anti.PriceCI {
		t.Errorf("antithetic price %v ± %v vs CF %v", anti.Price, anti.PriceCI, want.Price)
	}
	if math.Abs(anti.Delta-want.Delta) > 0.01 {
		t.Errorf("antithetic delta %v vs CF %v", anti.Delta, want.Delta)
	}
}

func TestMCBasketThreadsDeterministicAndCorrect(t *testing.T) {
	p := basketProblem(8).Set("paths", 50000).Set("threads", 4)
	a, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Price != b.Price || a.PriceCI != b.PriceCI {
		t.Fatalf("threaded MC not deterministic: %v vs %v", a.Price, b.Price)
	}
	single, err := basketProblem(8).Set("paths", 50000).Compute()
	if err != nil {
		t.Fatal(err)
	}
	// Different stream partitioning: not identical, but both estimates of
	// the same value within joint CI.
	if diff := math.Abs(a.Price - single.Price); diff > 3*(a.PriceCI+single.PriceCI) {
		t.Errorf("threaded %v ± %v vs single %v ± %v", a.Price, a.PriceCI, single.Price, single.PriceCI)
	}
}

func TestMCBasketThreadsEdgeCases(t *testing.T) {
	// More threads than paths clamps; zero threads is an error.
	if _, err := basketProblem(2).Set("paths", 10).Set("threads", 64).Compute(); err != nil {
		t.Fatalf("threads > paths: %v", err)
	}
	if _, err := basketProblem(2).Set("paths", 10).Set("threads", -1).Compute(); err == nil {
		t.Fatal("negative threads accepted")
	}
}

func TestBasketPutCallParity(t *testing.T) {
	// European basket: C − P = e^{-rT}(E[B] − K) with
	// E[B] = S0·e^{(r−q)T} for identical marginals, method-independent.
	base := func(option, method string) *Problem {
		return New().SetModel(ModelBSND).SetOption(option).SetMethod(method).
			Set("S0", 100).Set("r", 0.05).Set("divid", 0.01).Set("sigma", 0.25).
			Set("dim", 10).Set("rho", 0.3).Set("K", 100).Set("T", 1).
			Set("paths", 200000)
	}
	want := math.Exp(-0.05) * (100*math.Exp(0.04) - 100)
	for _, method := range []string{MethodMCBasket, MethodQMCBasket} {
		call, err := base(OptCallBasketEuro, method).Compute()
		if err != nil {
			t.Fatalf("%s call: %v", method, err)
		}
		put, err := base(OptPutBasketEuro, method).Compute()
		if err != nil {
			t.Fatalf("%s put: %v", method, err)
		}
		tol := 3*(call.PriceCI+put.PriceCI) + 0.02
		if diff := math.Abs(call.Price - put.Price - want); diff > tol {
			t.Errorf("%s parity: C-P = %v, want %v (tol %v)", method, call.Price-put.Price, want, tol)
		}
	}
}

func TestFDBarrierRebateMatchesCF(t *testing.T) {
	// The PDE carries the rebate through its knock-out boundary condition;
	// it must agree with the closed formula including the rebate leg.
	cf, err := barrierProblem(MethodCFCallDownOut, 100, 1, 90).Set("rebate", 4).Compute()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := barrierProblem(MethodFDCrank, 100, 1, 90).Set("rebate", 4).
		Set("nodes", 800).Set("steps", 400).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf.Price-fd.Price) > 0.03*cf.Price {
		t.Errorf("rebate barrier: CF %v vs FD %v", cf.Price, fd.Price)
	}
}

func TestAmericanCallNoDividendEqualsEuropean(t *testing.T) {
	// Merton's classic result: without dividends, early exercise of a call
	// is never optimal.
	base := func(option string) *Problem {
		return New().SetModel(ModelBS1D).SetOption(option).SetMethod(MethodTreeCRR).
			Set("S0", 100).Set("r", 0.05).Set("divid", 0).Set("sigma", 0.25).
			Set("K", 100).Set("T", 1).Set("steps", 600)
	}
	euro, err := base(OptCallEuro).Compute()
	if err != nil {
		t.Fatal(err)
	}
	amer, err := base(OptCallAmer).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(amer.Price-euro.Price) > 1e-9 {
		t.Errorf("no-dividend American call %v != European %v", amer.Price, euro.Price)
	}
}

func TestAmericanCallDividendPremium(t *testing.T) {
	// With a fat dividend yield the early-exercise premium is strictly
	// positive for ITM calls, on both lattices.
	for _, method := range []string{MethodTreeCRR, MethodTreeTrinomial} {
		base := func(option string) *Problem {
			return New().SetModel(ModelBS1D).SetOption(option).SetMethod(method).
				Set("S0", 100).Set("r", 0.03).Set("divid", 0.08).Set("sigma", 0.25).
				Set("K", 70).Set("T", 2).Set("steps", 600)
		}
		euro, err := base(OptCallEuro).Compute()
		if err != nil {
			t.Fatal(err)
		}
		amer, err := base(OptCallAmer).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if amer.Price <= euro.Price+1e-6 {
			t.Errorf("%s: ITM American call %v not above European %v under dividends",
				method, amer.Price, euro.Price)
		}
		if amer.Price < 30-1e-9 {
			t.Errorf("%s: American call %v below intrinsic 30", method, amer.Price)
		}
	}
}

func TestFDUpOutMatchesCF(t *testing.T) {
	for _, u := range []float64{115.0, 130, 160} {
		cf, err := upBarrierProblem(MethodCFCallUpOut, 100, 1, u).Compute()
		if err != nil {
			t.Fatal(err)
		}
		fd, err := upBarrierProblem(MethodFDCrank, 100, 1, u).
			Set("nodes", 800).Set("steps", 400).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cf.Price-fd.Price) > 0.02*math.Max(cf.Price, 0.5) {
			t.Errorf("U=%v: FD up-out %v vs CF %v", u, fd.Price, cf.Price)
		}
	}
}

func TestFDUpOutRebate(t *testing.T) {
	cf, err := upBarrierProblem(MethodCFCallUpOut, 100, 1, 130).Set("rebate", 4).Compute()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := upBarrierProblem(MethodFDCrank, 100, 1, 130).Set("rebate", 4).
		Set("nodes", 800).Set("steps", 400).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf.Price-fd.Price) > 0.03*cf.Price {
		t.Errorf("rebate up-out: CF %v vs FD %v", cf.Price, fd.Price)
	}
}

func TestLSMDegreeConvergence(t *testing.T) {
	// The LSM continuation-value fit improves with the polynomial degree
	// and stabilises: degree 3 must be within tolerance of degree 5, and
	// both within 2% of the PDE value (LSM's low bias).
	fd, err := bsProblem(OptPutAmer, MethodFDBS, 110, 1).
		Set("nodes", 600).Set("steps", 300).Compute()
	if err != nil {
		t.Fatal(err)
	}
	price := func(degree int) float64 {
		res, err := bsProblem(OptPutAmer, MethodMCAmerLSM, 110, 1).
			Set("paths", 50000).Set("exdates", 50).Set("degree", float64(degree)).Compute()
		if err != nil {
			t.Fatal(err)
		}
		return res.Price
	}
	d1 := price(1)
	d3 := price(3)
	d5 := price(5)
	if math.Abs(d3-d5) > 0.01*fd.Price {
		t.Errorf("LSM degree 3 (%v) vs 5 (%v) not stabilised", d3, d5)
	}
	if math.Abs(d3-fd.Price) > 0.02*fd.Price {
		t.Errorf("LSM degree 3 %v far from PDE %v", d3, fd.Price)
	}
	// A linear continuation fit underprices (coarser exercise rule).
	if d1 > d3+0.02 {
		t.Errorf("degree-1 LSM %v above degree-3 %v", d1, d3)
	}
}
