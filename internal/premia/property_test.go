package premia

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randBS draws a sane random Black–Scholes parameter set.
func randBS(r *rand.Rand) (s0, rr, q, sigma, k, t float64) {
	s0 = 50 + 100*r.Float64()
	rr = -0.01 + 0.11*r.Float64()
	q = 0.05 * r.Float64()
	sigma = 0.05 + 0.55*r.Float64()
	k = s0 * (0.5 + r.Float64())
	t = 0.1 + 4*r.Float64()
	return
}

func quickCfg(n int, gen func(r *rand.Rand) []reflect.Value) *quick.Config {
	return &quick.Config{
		MaxCount: n,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i, v := range gen(r) {
				vals[i] = v
			}
		},
	}
}

type bsCase struct {
	S0, R, Q, Sigma, K, T float64
}

func genBSCase(r *rand.Rand) []reflect.Value {
	s0, rr, q, sigma, k, t := randBS(r)
	return []reflect.Value{reflect.ValueOf(bsCase{s0, rr, q, sigma, k, t})}
}

func (c bsCase) problem(option, method string) *Problem {
	return New().SetModel(ModelBS1D).SetOption(option).SetMethod(method).
		Set("S0", c.S0).Set("r", c.R).Set("divid", c.Q).Set("sigma", c.Sigma).
		Set("K", c.K).Set("T", c.T)
}

func TestPropertyCallArbitrageBounds(t *testing.T) {
	f := func(c bsCase) bool {
		res, err := c.problem(OptCallEuro, MethodCFCall).Compute()
		if err != nil {
			return false
		}
		lower := math.Max(c.S0*math.Exp(-c.Q*c.T)-c.K*math.Exp(-c.R*c.T), 0)
		upper := c.S0 * math.Exp(-c.Q*c.T)
		return res.Price >= lower-1e-10 && res.Price <= upper+1e-10 &&
			res.Delta >= 0 && res.Delta <= 1
	}
	if err := quick.Check(f, quickCfg(500, genBSCase)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVolatilityMonotone(t *testing.T) {
	// Vanilla prices increase with volatility.
	f := func(c bsCase) bool {
		lo, err := c.problem(OptCallEuro, MethodCFCall).Compute()
		if err != nil {
			return false
		}
		cHi := c
		cHi.Sigma = c.Sigma * 1.3
		hi, err := cHi.problem(OptCallEuro, MethodCFCall).Compute()
		if err != nil {
			return false
		}
		return hi.Price >= lo.Price-1e-10
	}
	if err := quick.Check(f, quickCfg(300, genBSCase)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBarrierBelowVanilla(t *testing.T) {
	f := func(c bsCase, lFrac float64) bool {
		lFrac = math.Abs(math.Mod(lFrac, 0.9))
		l := c.S0 * (0.05 + lFrac) // barrier strictly below spot
		if l >= c.S0 {
			return true
		}
		vanilla, err := c.problem(OptCallEuro, MethodCFCall).Compute()
		if err != nil {
			return false
		}
		barrier, err := c.problem(OptCallDownOut, MethodCFCallDownOut).Set("L", l).Compute()
		if err != nil {
			return false
		}
		return barrier.Price >= -1e-10 && barrier.Price <= vanilla.Price+1e-8
	}
	cfg := quickCfg(300, func(r *rand.Rand) []reflect.Value {
		vs := genBSCase(r)
		return append(vs, reflect.ValueOf(r.Float64()))
	})
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDigitalParity(t *testing.T) {
	f := func(c bsCase) bool {
		call, err := c.problem(OptDigitalCall, MethodCFDigital).Compute()
		if err != nil {
			return false
		}
		put, err := c.problem(OptDigitalPut, MethodCFDigital).Compute()
		if err != nil {
			return false
		}
		df := math.Exp(-c.R * c.T)
		return math.Abs(call.Price+put.Price-df) < 1e-10 &&
			call.Price >= 0 && put.Price >= 0
	}
	if err := quick.Check(f, quickCfg(400, genBSCase)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAmericanDominance(t *testing.T) {
	// American put >= European put >= intrinsic-discounted bound, via the
	// trinomial tree at random parameters.
	f := func(c bsCase) bool {
		euro, err := c.problem(OptPutEuro, MethodTreeTrinomial).Set("steps", 200).Compute()
		if err != nil {
			return true // probability clamp at extreme drift: skip
		}
		amer, err := c.problem(OptPutAmer, MethodTreeTrinomial).Set("steps", 200).Compute()
		if err != nil {
			return true
		}
		intrinsic := math.Max(c.K-c.S0, 0)
		return amer.Price >= euro.Price-1e-9 && amer.Price >= intrinsic-1e-9
	}
	if err := quick.Check(f, quickCfg(150, genBSCase)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMertonAboveBSPrice(t *testing.T) {
	// With zero-mean jumps, jump risk adds convexity value: the Merton
	// price dominates Black–Scholes at the same diffusion volatility for
	// convex payoffs (variance is strictly larger).
	f := func(c bsCase, lamSeed float64) bool {
		lambda := 0.1 + math.Abs(math.Mod(lamSeed, 2))
		merton := New().SetModel(ModelMerton).SetOption(OptCallEuro).SetMethod(MethodCFMerton).
			Set("S0", c.S0).Set("r", c.R).Set("divid", c.Q).Set("sigma", c.Sigma).
			Set("lambda", lambda).Set("muJ", -0.02).Set("sigmaJ", 0.2).
			Set("K", c.K).Set("T", c.T)
		mp, err := merton.Compute()
		if err != nil {
			return false
		}
		bs, err := c.problem(OptCallEuro, MethodCFCall).Compute()
		if err != nil {
			return false
		}
		return mp.Price >= bs.Price-1e-8
	}
	cfg := quickCfg(200, func(r *rand.Rand) []reflect.Value {
		vs := genBSCase(r)
		return append(vs, reflect.ValueOf(r.Float64()))
	})
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTreesAgree(t *testing.T) {
	// CRR and trinomial converge to the same value at random parameters.
	f := func(c bsCase) bool {
		crr, err := c.problem(OptCallEuro, MethodTreeCRR).Set("steps", 600).Compute()
		if err != nil {
			return true
		}
		tri, err := c.problem(OptCallEuro, MethodTreeTrinomial).Set("steps", 600).Compute()
		if err != nil {
			return true
		}
		scale := math.Max(crr.Price, 0.5)
		return math.Abs(crr.Price-tri.Price) < 0.02*scale+0.02
	}
	if err := quick.Check(f, quickCfg(60, genBSCase)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGreeksSigns(t *testing.T) {
	// Closed-form call: gamma, vega > 0; rho > 0; delta in (0,1).
	f := func(c bsCase) bool {
		g, err := ComputeGreeks(c.problem(OptCallEuro, MethodCFCall))
		if err != nil {
			return false
		}
		return g.Gamma > 0 && g.Vega > 0 && g.Rho > 0 && g.Delta > 0 && g.Delta < 1
	}
	if err := quick.Check(f, quickCfg(300, genBSCase)); err != nil {
		t.Fatal(err)
	}
}
