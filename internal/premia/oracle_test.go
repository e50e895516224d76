package premia

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mapVanilla is the reference reader of CF_Call and CF_Put, as they read
// their parameters before the vanilla record: bsFrom and vanillaFrom over
// the parameter table (S0, sigma, K, T positive, in that order; r and
// divid zero when absent), copied here so that a change to the record or
// its validator is measured against what they were, then the formula the
// record calls. The formula is shared, not copied: a NaN's sign and
// payload follow the exact instruction sequence (operand order,
// negations), which a copy does not pin, so only the same compiled
// formula is bit-identical on the NaNs that ±Inf or NaN inputs produce.
func mapVanilla(p Params, put bool) (Result, error) {
	need := func(key string) (float64, error) {
		v, ok := p[key]
		if !ok {
			return 0, fmt.Errorf("%w %q", ErrMissingParam, key)
		}
		if !(v > 0) {
			return 0, fmt.Errorf("premia: parameter %q must be positive, got %v", key, v)
		}
		return v, nil
	}
	var s0, sigma, k, t float64
	var err error
	if s0, err = need("S0"); err != nil {
		return Result{}, err
	}
	if sigma, err = need("sigma"); err != nil {
		return Result{}, err
	}
	r, q := p.Get("r", 0), p.Get("divid", 0)
	if k, err = need("K"); err != nil {
		return Result{}, err
	}
	if t, err = need("T"); err != nil {
		return Result{}, err
	}
	formula := bsCallPrice
	if put {
		formula = bsPutPrice
	}
	price, delta := formula(bsParams{S0: s0, R: r, Div: q, Sigma: sigma}, k, t)
	return Result{Price: price, Delta: delta, HasDelta: true, Work: 1}, nil
}

// TestVanillaRecordMatchesMapReader is the oracle of the vanilla record:
// over 2 000 seeded parameter sets — ordinary values, absent parameters
// (r and divid default, the others are missing), zero, negative, ±Inf,
// NaN and subnormal values — CF_Call and CF_Put price bit for bit what
// the map reader prices, and fail with its error text byte for byte,
// whether they are computed as problems or as the cells of one sweep over
// an empty base.
func TestVanillaRecordMatchesMapReader(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ranges := map[string][2]float64{
		"S0": {50, 150}, "sigma": {0.05, 0.6}, "r": {-0.02, 0.1},
		"divid": {0, 0.05}, "K": {40, 160}, "T": {0.05, 5},
	}
	draw := func(name string) (float64, bool) {
		switch rng.Intn(24) {
		case 0:
			return 0, false
		case 1:
			return 0, true
		case 2:
			return -100 * rng.Float64(), true
		case 3:
			return math.Inf(1), true
		case 4:
			return math.Inf(-1), true
		case 5:
			return 5e-324, true
		case 6:
			return math.NaN(), true
		}
		lo, hi := ranges[name][0], ranges[name][1]
		return lo + (hi-lo)*rng.Float64(), true
	}
	const n = 2000
	sets := make([]Params, n)
	for i := range sets {
		sets[i] = Params{}
		for _, name := range vanillaNames {
			if v, ok := draw(name); ok {
				sets[i][name] = v
			}
		}
	}
	priced, missingK, refused := 0, 0, 0
	for _, put := range []bool{false, true} {
		base := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall)
		if put {
			base.SetOption(OptPutEuro).SetMethod(MethodCFPut)
		}
		sw := &Sweep{Base: base, Cells: make([][]Override, n)}
		for i, set := range sets {
			for _, name := range slices.Sorted(maps.Keys(set)) {
				sw.Cells[i] = append(sw.Cells[i], Override{name, set[name]})
			}
		}
		cells, cellErrs := sw.Compute()
		for i, set := range sets {
			want, wantErr := mapVanilla(set, put)
			p := base.Clone()
			p.Params = set
			got, err := p.Compute()
			cellErr := error(nil)
			if cellErrs != nil {
				cellErr = cellErrs[i]
			}
			for _, e := range []error{err, cellErr} {
				if (e == nil) != (wantErr == nil) || (e != nil && e.Error() != wantErr.Error()) {
					t.Errorf("%s %v: Compute error %v, sweep cell error %v, map reader %v", base.Method, set, err, cellErr, wantErr)
				}
			}
			if !sameResult(got, want) || !sameResult(cells[i], want) {
				t.Errorf("%s %v: Compute %+v, sweep cell %+v, map reader %+v", base.Method, set, got, cells[i], want)
			}
			switch {
			case wantErr == nil:
				priced++
			case strings.Contains(wantErr.Error(), `missing parameter "K"`):
				missingK++
			case strings.Contains(wantErr.Error(), "must be positive"):
				refused++
			}
		}
	}
	if priced < n/2 || missingK == 0 || refused < n/4 {
		t.Errorf("the sets priced %d times, missed K %d times and were refused %d times: not a mix", priced, missingK, refused)
	}
}

// TestClosedFormAgreesWithNumerics holds the closed forms against three
// independent methods on seeded random admitted parameters, each within
// its own stated error: the CRR tree and the Crank–Nicolson PDE within
// the relative tolerance their grids reach, Monte Carlo at three seeds,
// each within four of its 95 % half-widths.
func TestClosedFormAgreesWithNumerics(t *testing.T) {
	const (
		treeSteps = 1024
		treeTol   = 2e-3 // relative, at 1024 steps (seen: 4.3e-4)
		pdeNodes  = 400
		pdeSteps  = 200
		pdeTol    = 1e-3 // relative, at 400 nodes × 200 steps (seen: 1.4e-4)
		mcPaths   = 40000
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		s0 := 50 + 100*rng.Float64()
		c := bsCase{
			S0: s0, R: -0.01 + 0.08*rng.Float64(), Q: 0.04 * rng.Float64(), Sigma: 0.15 + 0.35*rng.Float64(),
			K: s0 * (0.85 + 0.3*rng.Float64()), T: 0.5 + 2.5*rng.Float64(),
		}
		for _, v := range []struct{ option, method string }{{OptCallEuro, MethodCFCall}, {OptPutEuro, MethodCFPut}} {
			cf, err := c.problem(v.option, v.method).Compute()
			if err != nil {
				t.Fatalf("%+v %s: %v", c, v.method, err)
			}
			mc := func(seed int) map[string]float64 { return map[string]float64{"paths": mcPaths, "seed": float64(seed)} }
			mcTol := func(r Result) float64 { return 4 * r.PriceCI }
			for _, num := range []struct {
				method string
				set    map[string]float64
				tol    func(Result) float64
			}{
				{MethodTreeCRR, map[string]float64{"steps": treeSteps}, func(Result) float64 { return treeTol * cf.Price }},
				{MethodFDCrank, map[string]float64{"nodes": pdeNodes, "steps": pdeSteps}, func(Result) float64 { return pdeTol * cf.Price }},
				{MethodMCEuro, mc(3*i + 1), mcTol},
				{MethodMCEuro, mc(3*i + 2), mcTol},
				{MethodMCEuro, mc(3*i + 3), mcTol},
			} {
				p := c.problem(v.option, num.method)
				for k, x := range num.set {
					p.Set(k, x)
				}
				res, err := p.Compute()
				if err != nil {
					t.Fatalf("%+v %s: %v", c, num.method, err)
				}
				if d := math.Abs(res.Price - cf.Price); !(d <= num.tol(res)) {
					t.Errorf("%+v %s: %s %v, %s %v (off by %.3g, allowed %.3g)", c, v.option, num.method, res.Price, v.method, cf.Price, d, num.tol(res))
				}
			}
		}
	}
}

// TestBarrierPDEAgreesWithClosedForm is the barrier-PDE half of the
// realistic book's oracle: FD_CrankNicolson down-and-out calls on the
// realistic book's grid (400 nodes, one time step every two days) match
// the Reiner–Rubinstein CF_CallDownOut on seeded random admitted
// parameters — barrier 5–40 % below the spot, strike either side of it,
// rates, dividends, volatilities and maturities across the book's ranges.
// Each set is priced as a sweep of five cells (the base, spot ±5 %, a
// volatility and a rate shift), a revaluation's shape, and every cell is
// held against the closed form of Cell(k).
func TestBarrierPDEAgreesWithClosedForm(t *testing.T) {
	const (
		nodes = 400
		// The grid's error, relative to the spot: seen up to 5.7e-6 over
		// these 200 cells (relative to a price above 1 % of spot, up to
		// 7.1e-5), so the bound leaves about nine times that.
		tol = 5e-5
	)
	cells := [][]Override{nil, {{Param: "S0", Value: 0.95}}, {{Param: "S0", Value: 1.05}}, {{Param: "sigma", Value: 0.02}}, {{Param: "r", Value: 0.01}}}
	rng := rand.New(rand.NewSource(46))
	worst, worstRel := 0.0, 0.0
	for i := 0; i < 40; i++ {
		s0 := 50 + 100*rng.Float64()
		c := bsCase{
			S0: s0, R: -0.01 + 0.08*rng.Float64(), Q: 0.04 * rng.Float64(), Sigma: 0.15 + 0.35*rng.Float64(),
			K: s0 * (0.7 + 0.6*rng.Float64()), T: 1.0/3 + 2.75*rng.Float64(),
		}
		l := s0 * (0.6 + 0.35*rng.Float64())
		// The cells' shifts, from the base's values: spot scaled, the
		// volatility and rate moved.
		sw := &Sweep{Base: c.problem(OptCallDownOut, MethodFDCrank).Set("L", l).Set("nodes", nodes).Set("steps", float64(int(c.T*182)+1))}
		for _, cell := range cells {
			var set []Override
			for _, o := range cell {
				v := c.S0 * o.Value
				switch o.Param {
				case "sigma":
					v = c.Sigma + o.Value
				case "r":
					v = c.R + o.Value
				}
				set = append(set, Override{Param: o.Param, Value: v})
			}
			sw.Cells = append(sw.Cells, set)
		}
		results, errs := sw.Compute()
		if errs != nil {
			t.Fatalf("%+v L=%v: %v", c, l, errs)
		}
		for k, pde := range results {
			p := sw.Cell(k)
			cf, err := p.SetMethod(MethodCFCallDownOut).Compute()
			if err != nil {
				t.Fatalf("%+v L=%v cell %d: %v", c, l, k, err)
			}
			spot := p.Params["S0"]
			d := math.Abs(pde.Price - cf.Price)
			worst = max(worst, d/spot)
			if cf.Price > 0.01*spot {
				worstRel = max(worstRel, d/cf.Price)
			}
			if !(d <= tol*spot) {
				t.Errorf("%+v L=%v cell %d: FD_CrankNicolson %v, CF_CallDownOut %v (off by %.3g of spot, allowed %.3g)", c, l, k, pde.Price, cf.Price, d/spot, tol)
			}
		}
	}
	t.Logf("worst error %.3g of spot, %.3g of a price above 1 %% of spot", worst, worstRel)
}

// TestAmericanPDEAgreesWithCRR is the American-PDE half of the realistic
// book's oracle: FD_BrennanSchwartz puts on the book's grid (400 nodes,
// one time step every two days) match a fine TR_CRR tree on seeded random
// admitted parameters — strike either side of the spot, rates, dividends,
// volatilities and maturities across the book's ranges. Each set is priced
// as a sweep of three cells (the base and spot ±5 %), a revaluation's
// shape, and every cell is held against the tree of Cell(k).
func TestAmericanPDEAgreesWithCRR(t *testing.T) {
	const (
		nodes     = 400
		treeSteps = 2000
		// The difference, relative to the spot: seen up to 4.7e-5 over
		// these 120 cells (5.2e-5 against a 4000-step tree, so the PDE's
		// grid, not the tree, sets it); the bound leaves about eight
		// times that.
		tol = 4e-4
	)
	cells := [][]Override{nil, {{Param: "S0", Value: 0.95}}, {{Param: "S0", Value: 1.05}}}
	rng := rand.New(rand.NewSource(47))
	worst := 0.0
	for i := 0; i < 40; i++ {
		s0 := 50 + 100*rng.Float64()
		c := bsCase{
			S0: s0, R: -0.01 + 0.08*rng.Float64(), Q: 0.04 * rng.Float64(), Sigma: 0.15 + 0.35*rng.Float64(),
			K: s0 * (0.7 + 0.6*rng.Float64()), T: 1.0/3 + 2.75*rng.Float64(),
		}
		sw := &Sweep{Base: c.problem(OptPutAmer, MethodFDBS).Set("nodes", nodes).Set("steps", float64(int(c.T*182)+1))}
		for _, cell := range cells {
			var set []Override
			for _, o := range cell {
				set = append(set, Override{Param: o.Param, Value: c.S0 * o.Value})
			}
			sw.Cells = append(sw.Cells, set)
		}
		results, errs := sw.Compute()
		if errs != nil {
			t.Fatalf("%+v: %v", c, errs)
		}
		for k, pde := range results {
			p := sw.Cell(k)
			tree, err := p.SetMethod(MethodTreeCRR).Set("steps", treeSteps).Compute()
			if err != nil {
				t.Fatalf("%+v cell %d: %v", c, k, err)
			}
			spot := p.Params["S0"]
			d := math.Abs(pde.Price - tree.Price)
			worst = max(worst, d/spot)
			if !(d <= tol*spot) {
				t.Errorf("%+v cell %d: FD_BrennanSchwartz %v, TR_CRR %v (off by %.3g of spot, allowed %.3g)", c, k, pde.Price, tree.Price, d/spot, tol)
			}
		}
	}
	t.Logf("worst difference %.3g of spot", worst)
}
