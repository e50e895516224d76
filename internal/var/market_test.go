package varisk

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"riskbench/internal/risk"
)

// TestGenerateBitIdenticalAcrossThreads is the scenario-generator half
// of the determinism contract: the same (seed, n) produces the same
// scenarios bit for bit at any shard count, because scenario i's stream
// depends only on (seed, i), never on the partition.
func TestGenerateBitIdenticalAcrossThreads(t *testing.T) {
	m := DefaultMarket()
	want, err := m.Generate(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 7, 16, 1000} {
		got, err := m.GenerateParallel(context.Background(), 500, 42, threads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scenarios differ at %d threads", threads)
		}
	}
}

// TestGenerateDistribution sanity-checks the factor model on a large
// sample: unit-mean lognormal spot/vol factors, the configured
// log-volatility, and the sign of the spot–vol correlation.
func TestGenerateDistribution(t *testing.T) {
	m := DefaultMarket()
	n := 20000
	scens, err := m.Generate(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := m.HorizonDays / 252
	var meanS, meanLogS, varLogS, meanLogV, covSV float64
	logS := make([]float64, n)
	logV := make([]float64, n)
	for i, sc := range scens {
		if len(sc.Shifts) != 3 {
			t.Fatalf("scenario %d has %d shifts, want 3", i, len(sc.Shifts))
		}
		xs, xv, _, ok := ShockCoords(sc)
		if !ok {
			t.Fatalf("generated scenario %d does not project", i)
		}
		if xs <= -1 || xv <= -1 {
			t.Fatalf("scenario %d pushes spot or vol negative: xs=%v xv=%v", i, xs, xv)
		}
		meanS += 1 + xs
		logS[i] = math.Log(1 + xs)
		logV[i] = math.Log(1 + xv)
		meanLogS += logS[i]
		meanLogV += logV[i]
	}
	meanS /= float64(n)
	meanLogS /= float64(n)
	meanLogV /= float64(n)
	for i := range logS {
		ds, dv := logS[i]-meanLogS, logV[i]-meanLogV
		varLogS += ds * ds
		covSV += ds * dv
	}
	varLogS /= float64(n)
	// E[1+xs] = 1 by the -σ²h/2 drift correction.
	if math.Abs(meanS-1) > 0.01 {
		t.Errorf("mean gross spot move %v, want ≈1", meanS)
	}
	wantSd := m.SpotVol * math.Sqrt(h)
	if sd := math.Sqrt(varLogS); math.Abs(sd-wantSd) > 0.05*wantSd {
		t.Errorf("log-spot stddev %v, want ≈%v", sd, wantSd)
	}
	if covSV >= 0 {
		t.Errorf("spot–vol covariance %v, want negative (RhoSV=%v)", covSV, m.RhoSV)
	}
}

// TestGenerateOmitsSwitchedOffFactors: zero factor vols drop the shift
// entirely, which is what lets a spot-only backtest book revalue
// without skipping claims that carry no vol or rate parameter.
func TestGenerateOmitsSwitchedOffFactors(t *testing.T) {
	m := MarketModel{SpotVol: 0.2}
	scens, err := m.Generate(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scens {
		if len(sc.Shifts) != 1 || sc.Shifts[0].Param != "S0" {
			t.Fatalf("spot-only model produced shifts %+v", sc.Shifts)
		}
	}
}

func TestGenerateRejectsBadCorrelations(t *testing.T) {
	m := MarketModel{SpotVol: 0.2, VolVol: 0.5, RateVol: 0.01, RhoSV: 0.9, RhoSR: 0.9}
	if _, err := m.Generate(10, 1); err == nil {
		t.Fatal("non-positive-definite correlations accepted")
	}
	if _, err := DefaultMarket().Generate(-1, 1); err == nil {
		t.Fatal("negative scenario count accepted")
	}
}

// TestMarketModelValidate: a negative volatility is not "factor off", a
// volatility or horizon the lognormal factors cannot carry is refused
// before a draw is made, and every refusal names its field; the zero
// model, the default one and one at each maximum pass.
func TestMarketModelValidate(t *testing.T) {
	atMax := MarketModel{SpotVol: MaxHorizonVol / math.Sqrt(MaxHorizonYears), HorizonDays: MaxHorizonYears * 252, RhoSV: -1}
	for _, m := range []MarketModel{{}, DefaultMarket(), atMax} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
	for field, models := range map[string][]MarketModel{
		"SpotVol":     {{SpotVol: -1}, {SpotVol: 50}, {SpotVol: math.NaN()}, {SpotVol: math.Inf(1)}, {SpotVol: 1, HorizonDays: 2520}},
		"VolVol":      {{VolVol: -3}, {VolVol: 15.1}},
		"RateVol":     {{RateVol: -0.01}, {RateVol: 1e308}},
		"RhoSV":       {{RhoSV: 7}, {RhoSV: math.NaN()}},
		"RhoSR":       {{RhoSR: -1.01}},
		"HorizonDays": {{HorizonDays: -10}, {HorizonDays: 1e300}, {HorizonDays: math.NaN()}, {HorizonDays: math.Inf(1)}},
	} {
		for _, m := range models {
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%+v: error %v, want one naming %s", m, err, field)
				continue
			}
			if _, gerr := m.Generate(4, 1); gerr == nil || gerr.Error() != err.Error() {
				t.Errorf("%+v: Generate answered %v, want Validate's %v", m, gerr, err)
			}
		}
	}
}

func TestGenerateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DefaultMarket().GenerateParallel(ctx, 1000, 1, 4); err == nil {
		t.Fatal("cancelled generation returned scenarios")
	}
}

func TestShockCoords(t *testing.T) {
	sc := risk.Scenario{Name: "x", Shifts: []risk.Shift{
		{Param: "S0", Rel: -0.05},
		{Param: risk.VolToken, Rel: 0.10},
		{Param: risk.RateToken, Abs: 0.002},
	}}
	xs, xv, xr, ok := ShockCoords(sc)
	if !ok || xs != -0.05 || xv != 0.10 || xr != 0.002 {
		t.Fatalf("ShockCoords = %v %v %v %v", xs, xv, xr, ok)
	}
	bad := []risk.Scenario{
		{Shifts: []risk.Shift{{Param: "S0", Abs: 5}}},            // absolute spot
		{Shifts: []risk.Shift{{Param: risk.VolToken, Abs: 0.1}}}, // absolute vol
		{Shifts: []risk.Shift{{Param: risk.RateToken, Rel: 1}}},  // relative rate
		{Shifts: []risk.Shift{{Param: "K", Rel: 0.1}}},           // arbitrary param
	}
	for i, sc := range bad {
		if _, _, _, ok := ShockCoords(sc); ok {
			t.Errorf("bad scenario %d projected", i)
		}
	}
}

func TestHistoricalGrid(t *testing.T) {
	scens := HistoricalGrid()
	if len(scens) != 8*5+6 {
		t.Fatalf("historical grid has %d scenarios, want 46", len(scens))
	}
	for _, sc := range scens {
		if _, _, _, ok := ShockCoords(sc); !ok {
			t.Errorf("grid scenario %q does not project onto delta–gamma coordinates", sc.Name)
		}
	}
}
