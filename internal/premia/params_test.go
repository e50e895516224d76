package premia

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParamsIntRounding(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0},
		{2, 2},
		{2.4, 2},
		{2.5, 3},
		{2.6, 3},
		{-2, -2},
		{-2.4, -2}, // int(v+0.5) used to give -1
		{-2.5, -3}, // halves round away from zero
		{-2.6, -3},
		{0.4999, 0},
		{-0.4999, 0},
	} {
		p := Params{"k": tc.v}
		if got := p.Int("k", 99); got != tc.want {
			t.Errorf("Int(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := (Params{}).Int("missing", 7); got != 7 {
		t.Errorf("missing key: got %d, want fallback 7", got)
	}
}

// TestNaNIsNotPositive: a NaN spot is a pricing error naming it, not a
// NaN price — in the closed form, in a method that reads the spot through
// bsFrom, and in a sweep cell, where the cells beside it still price.
func TestNaNIsNotPositive(t *testing.T) {
	const want = `premia: parameter "S0" must be positive, got NaN`
	call := bsProblem(OptCallEuro, MethodCFCall, 100, 1)
	for _, p := range []*Problem{call.Clone(), bsProblem(OptCallEuro, MethodFDCrank, 100, 1)} {
		p.Set("S0", math.NaN())
		if res, err := p.Compute(); err == nil || err.Error() != want {
			t.Errorf("%s with S0 = NaN: %+v, %v; want %q", p, res, err, want)
		}
	}
	res, errs := (&Sweep{Base: call, Cells: [][]Override{nil, {{"S0", math.NaN()}}}}).Compute()
	if errs == nil || errs[0] != nil || res[0].Price <= 0 || errs[1] == nil || errs[1].Error() != want {
		t.Errorf("a sweep with a NaN-spot cell: %+v, %v; want cell 1 to fail with %q alone", res, errs, want)
	}
}

func TestParamsUint64(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want uint64
	}{
		{0, 0},
		{-5, 0},
		{math.NaN(), 0},
		{1.9, 1},
		{20090101, 20090101},
		{1 << 52, 1 << 52},
		{1 << 60, 1 << 60}, // exactly representable above 2^53
		{math.Inf(1), math.MaxUint64},
		{2 * math.Pow(2, 64), math.MaxUint64},
	} {
		p := Params{"k": tc.v}
		if got := p.Uint64("k", 42); got != tc.want {
			t.Errorf("Uint64(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := (Params{}).Uint64("missing", 42); got != 42 {
		t.Errorf("missing key: got %d, want fallback 42", got)
	}
}

// TestSetSeedLargeSeedsSurvive is the regression for the float64 seed
// round trip: seeds at and above 2^53 differ only in bits a float64
// cannot hold, so storing them in a single param conflates them. SetSeed
// splits the halves and mcSeed must reassemble the exact value.
func TestSetSeedLargeSeedsSurvive(t *testing.T) {
	for _, seed := range []uint64{0, 1, 20090101, 1 << 32, (1 << 53) + 1, (1 << 60) + 12345, math.MaxUint64} {
		p := New().SetSeed(seed)
		if got := mcSeed(p); got != seed {
			t.Errorf("mcSeed after SetSeed(%d) = %d", seed, got)
		}
	}
	// Adjacent large seeds must yield different prices; through a single
	// float64 "seed" param they collapse to the same stream.
	mk := func(seed uint64) *Problem {
		return bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 2000).SetSeed(seed)
	}
	a, err := mk((1 << 53) + 1).Compute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk((1 << 53) + 2).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Price == b.Price {
		t.Errorf("seeds 2^53+1 and 2^53+2 produced the same price %v", a.Price)
	}
	// Small seeds keep their historical meaning through plain Set.
	c, err := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 2000).Set("seed", 7).Compute()
	if err != nil {
		t.Fatal(err)
	}
	d, err := bsProblem(OptCallEuro, MethodMCEuro, 100, 1).Set("paths", 2000).SetSeed(7).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if c.Price != d.Price {
		t.Errorf("Set(seed,7) price %v != SetSeed(7) price %v", c.Price, d.Price)
	}
}

// TestSizedParametersBounded: every parameter that sizes memory is read
// through Params.size, which fails one past its maximum before the method
// allocates anything. The first three problems used to end the process in
// an out-of-memory fault (a 128 TB Cholesky factor, an 80 TB tree level,
// an 80 TB row of normals).
func TestSizedParametersBounded(t *testing.T) {
	basket := func(method string) *Problem {
		return New().SetModel(ModelBSND).SetOption(OptPutBasketEuro).SetMethod(method).
			Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("rho", 0.3).Set("K", 100).Set("T", 1).Set("dim", 3)
	}
	locvol := New().SetModel(ModelLocVol).SetOption(OptCallEuro).SetMethod(MethodMCLocalVol).
		Set("S0", 100).Set("r", 0.05).Set("sigma0", 0.2).Set("K", 100).Set("T", 1)
	for _, tc := range []struct {
		p    *Problem
		want string
	}{
		{basket(MethodMCBasket).Set("dim", 4000000).Set("paths", 2), `premia: parameter "dim" = 4000000 exceeds 1024`},
		{bsProblem(OptCallEuro, MethodTreeCRR, 100, 1).Set("steps", 1e13), `premia: parameter "steps" = 10000000000000 exceeds 1048576`},
		{locvol.Clone().Set("mcsteps", 1e13), `premia: parameter "mcsteps" = 10000000000000 exceeds 65536`},
		{bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1).Set("paths", 1<<24).Set("exdates", 64),
			`premia: parameters "paths" = 16777216 and "exdates" = 64 make LSM store 1191186432 values, which exceeds 134217728`},
	} {
		if _, err := tc.p.Compute(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.p, err, tc.want)
		}
	}
	// Every sized parameter, through a method that reads it.
	readers := map[string][]*Problem{
		"dim":       {basket(MethodMCBasket), basket(MethodQMCBasket)},
		"steps":     {bsProblem(OptCallEuro, MethodTreeCRR, 100, 1), bsProblem(OptCallEuro, MethodFDCrank, 100, 1), bsProblem(OptPutAmer, MethodFDBS, 100, 1)},
		"nodes":     {bsProblem(OptCallEuro, MethodFDCrank, 100, 1), bsProblem(OptPutAmer, MethodFDPSOR, 100, 1)},
		"mcsteps":   {locvol, bsProblem(OptCallDownOut, MethodMCEuro, 100, 1).Set("L", 80), bsProblem(OptLookbackCallFloat, MethodMCLookback, 100, 1)},
		"fixings":   {bsProblem(OptAsianCallFix, MethodMCAsianCV, 100, 1)},
		"exdates":   {bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1)},
		"degree":    {bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1)},
		"rotations": {basket(MethodQMCBasket)},
		"paths":     {bsProblem(OptPutAmer, MethodMCAmerLSM, 100, 1)},
	}
	for key, max := range sizeMax {
		if got, err := (Params{key: float64(max)}).size(key, 0); got != max || err != nil {
			t.Errorf("%s at its maximum reads as %d, %v", key, got, err)
		}
		if len(readers[key]) == 0 {
			t.Errorf("no method reads %q here", key)
		}
		for _, p := range readers[key] {
			for _, v := range []float64{float64(max) + 1, 1e300, math.Inf(1), math.NaN()} {
				want := "premia: parameter " + strconv.Quote(key) + " = "
				if _, err := p.Clone().Set(key, v).Compute(); err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s with %s = %v: err = %v, want one naming the parameter", p, key, v, err)
				}
			}
		}
	}
	// The realistic book's largest LSM claim at full effort (dim 7, 10^5
	// paths, 50 dates, degree 3) fits twenty times over.
	if err := lsmFits(1e5, 50, 1e5*(50+3+4)+kernelShards*50*7); err != nil {
		t.Error(err)
	}
}

// TestSizedParametersReadThroughSize: no method reads a parameter of
// sizeMax through the unbounded Int — except "paths", which most methods
// stream and only Longstaff–Schwartz stores.
func TestSizedParametersReadThroughSize(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for key := range sizeMax {
			if read := `.Int("` + key + `"`; key != "paths" && !strings.HasSuffix(file, "_test.go") && strings.Contains(string(src), read) {
				t.Errorf("%s reads %q with Params%s…), which has no upper bound: use Params.size", file, key, read)
			}
		}
	}
}
