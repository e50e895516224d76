package portfolio

import (
	"fmt"
	"math"
	"testing"

	"riskbench/internal/premia"
)

// bumpedGreeks is ComputeGreeks' bump path priced one problem at a time:
// the problem, then seven bumped copies, each its own Compute, failing at
// the first problem or parameter that does not price or read, in bump
// order. It is the reference ComputeGreeks' one Sweep is held to.
func bumpedGreeks(p *premia.Problem) (premia.Greeks, error) {
	if err := p.Validate(); err != nil {
		return premia.Greeks{}, err
	}
	price := func(q *premia.Problem) (float64, error) {
		res, err := q.Compute()
		return res.Price, err
	}
	base, err := price(p)
	if err != nil {
		return premia.Greeks{}, err
	}
	g := premia.Greeks{Price: base}
	s0, err := p.Params.NeedPositive("S0")
	if err != nil {
		return premia.Greeks{}, err
	}
	hs := 0.01 * s0
	up, err := price(p.Clone().Set("S0", s0+hs))
	if err != nil {
		return premia.Greeks{}, err
	}
	dn, err := price(p.Clone().Set("S0", s0-hs))
	if err != nil {
		return premia.Greeks{}, err
	}
	g.Delta = (up - dn) / (2 * hs)
	g.Gamma = (up - 2*base + dn) / (hs * hs)
	vp, err := premia.VolParam(p.Model)
	if err != nil {
		return premia.Greeks{}, err
	}
	vol, err := p.Params.NeedPositive(vp)
	if err != nil {
		return premia.Greeks{}, err
	}
	hv := 0.01 * vol
	vUp, err := price(p.Clone().Set(vp, vol+hv))
	if err != nil {
		return premia.Greeks{}, err
	}
	vDn, err := price(p.Clone().Set(vp, vol-hv))
	if err != nil {
		return premia.Greeks{}, err
	}
	g.Vega = (vUp - vDn) / (2 * hv)
	if p.Model == premia.ModelHeston {
		g.Vega = g.Vega * 2 * math.Sqrt(vol)
	}
	r := p.Params.Get("r", 0)
	rUp, err := price(p.Clone().Set("r", r+0.001))
	if err != nil {
		return premia.Greeks{}, err
	}
	rDn, err := price(p.Clone().Set("r", r-0.001))
	if err != nil {
		return premia.Greeks{}, err
	}
	g.Rho = (rUp - rDn) / (2 * 0.001)
	t, err := p.Params.NeedPositive("T")
	if err != nil {
		return premia.Greeks{}, err
	}
	ht := 1.0 / 365
	if ht >= t {
		ht = t / 2
	}
	tDn, err := price(p.Clone().Set("T", t-ht))
	if err != nil {
		return premia.Greeks{}, err
	}
	g.Theta = (tDn - base) / ht
	return g, nil
}

// greeksBits renders a sensitivity set as its bits, or its error.
func greeksBits(g premia.Greeks, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%016x %016x %016x %016x %016x %016x",
		math.Float64bits(g.Price), math.Float64bits(g.Delta), math.Float64bits(g.Gamma),
		math.Float64bits(g.Vega), math.Float64bits(g.Theta), math.Float64bits(g.Rho))
}

// TestGreeksAreOneSweep: on every problem of the regression suite and of
// the var_real sample (every 244th claim of the realistic book), at
// reduced effort, ComputeGreeks' one Sweep gives the bits of pricing each
// bump on its own, and fails with the same error where that fails — the
// Vasicek and credit models have no spot to bump. The closed-form
// vanillas take the analytic path, whose price and delta must be their
// Compute's.
func TestGreeksAreOneSweep(t *testing.T) {
	regression := Regression()
	if err := regression.ScaleEffort(0.02); err != nil {
		t.Fatal(err)
	}
	realistic := Realistic()
	if err := realistic.ScaleEffort(1e-3); err != nil {
		t.Fatal(err)
	}
	items := regression.Items
	for i := 0; i < len(realistic.Items); i += 244 {
		items = append(items, realistic.Items[i])
	}
	// Failures in both orders: a problem without a spot whose base fails
	// too, and a one-step tree whose volatility-down and rate-up cells
	// both leave its probability outside (0, 1) while its base prices.
	for _, it := range regression.Items {
		if _, ok := it.Problem.Params["S0"]; !ok {
			p := it.Problem.Clone()
			delete(p.Params, "T")
			items = append(items, Item{Name: "no S0, no T", Problem: p})
			break
		}
	}
	items = append(items, Item{Name: "CRR near q = 1", Problem: premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptPutAmer).SetMethod(premia.MethodTreeCRR).
		Set("S0", 100).Set("K", 100).Set("T", 1).Set("sigma", 0.05).Set("r", 0.0495).Set("steps", 1)})
	failed := 0
	for _, it := range items {
		p := it.Problem
		got, err := premia.ComputeGreeks(p)
		if p.Model == premia.ModelBS1D && (p.Method == premia.MethodCFCall || p.Method == premia.MethodCFPut) {
			res, cerr := p.Compute()
			if err != nil || cerr != nil || math.Float64bits(got.Price) != math.Float64bits(res.Price) || math.Float64bits(got.Delta) != math.Float64bits(res.Delta) {
				t.Errorf("%s: analytic price %v delta %v (%v), Compute %v %v (%v)", it.Name, got.Price, got.Delta, err, res.Price, res.Delta, cerr)
			}
			continue
		}
		if err != nil {
			failed++
		}
		if g, w := greeksBits(got, err), greeksBits(bumpedGreeks(p)); g != w {
			t.Errorf("%s %s:\n  sweep:  %s\n  bumped: %s", it.Name, p.Method, g, w)
		}
	}
	if failed == 0 {
		t.Error("no problem failed its greeks: the error order goes unchecked")
	}
}
