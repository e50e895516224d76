package premia

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// rebateCases are knock-out calls that carry a rebate, which no book
// sets: each barrier with the spot inside it, near it, on it and beyond
// it, at three maturities, strikes on both sides of the barrier (both
// branches of the down-and-out formula, and an up-and-out that can only
// pay its rebate), and volatility, rate and dividend yield varied across
// the cases.
func rebateCases() []*Problem {
	var cases []*Problem
	n := 0
	for _, b := range []struct {
		option, method, key string
		barrier             float64
		spots, strikes      []float64
	}{
		{OptCallUpOut, MethodCFCallUpOut, "U", 130, []float64{90, 110, 129, 130, 140}, []float64{100, 135}},
		{OptCallDownOut, MethodCFCallDownOut, "L", 80, []float64{120, 100, 81, 80, 70}, []float64{90, 75}},
	} {
		for _, s0 := range b.spots {
			for _, t := range []float64{0.25, 1, 3} {
				cases = append(cases, New().SetModel(ModelBS1D).SetOption(b.option).SetMethod(b.method).
					Set("S0", s0).Set("K", b.strikes[n/3%2]).Set("T", t).Set(b.key, b.barrier).
					Set("sigma", []float64{0.15, 0.4}[n%2]).Set("r", []float64{0.01, 0.06, 0}[n%3]).
					Set("divid", []float64{0, 0.03}[n/2%2]).Set("rebate", 2.5))
				n++
			}
		}
	}
	return cases
}

// rebateGolden holds the bits of Price and Delta of each of rebateCases,
// in order, as the two closed forms priced them before they shared one
// wrapper and one hit probability.
const rebateGolden = `
3fd1bdf63850ae84 3fb7515fa0f09e41
3ffa5f445ab6617d bf6deec7549bf8e3
3ff453f435b6fe06 3fa8d62cd4f8901c
3fece7f424cf3d0f 0000000000000000
3febe1c268bfb8da 0000000000000000
3ffd7aa383399c0e 0000000000000000
400f666887573e89 bffa40d417e43002
4002b966cf48a1b9 bf9cf3c5c476ca6b
4004452f71288e4b bfba552669e1025b
4003f3374ae7197a 0000000000000000
4002d5d59c058a74 0000000000000000
4004000000000000 0000000000000000
4003f3374ae7197a 0000000000000000
4002d5d59c058a74 0000000000000000
4004000000000000 0000000000000000
40461477bfab90d6 3ff0486dbac1c4eb
4048adf548bf4654 3ff00badb43260ab
4045a9d6633f23b5 3ff09206f66da0f5
402391942333a44c 3fed1408248a78e0
4032af4f2c3f8536 3feb80fea8188740
402f38544cc1be31 3fe9358ed68e6d00
400cfba554047349 3ff3d2879b5a93cb
400e83f8082778bd 3ff9ccae26e58449
400a534b5a042a2d 3fe9f450a75c6d29
4003f3374ae7197a 0000000000000000
4002d5d59c058a74 0000000000000000
4004000000000000 0000000000000000
4003f3374ae7197a 0000000000000000
4002d5d59c058a74 0000000000000000
4004000000000000 0000000000000000
`

// TestRebateBarrierGolden pins the rebate term of both knock-out calls to
// its bits: prices.lock holds no rebate, so it cannot see hitProbability.
func TestRebateBarrierGolden(t *testing.T) {
	var got strings.Builder
	for _, p := range rebateCases() {
		res, err := p.Compute()
		if err != nil {
			t.Fatalf("%s S0 %v T %v: %v", p.Method, p.Params["S0"], p.Params["T"], err)
		}
		fmt.Fprintf(&got, "%016x %016x\n", math.Float64bits(res.Price), math.Float64bits(res.Delta))
	}
	if want := strings.TrimPrefix(rebateGolden, "\n"); got.String() != want {
		t.Errorf("rebate-carrying barrier calls moved; this tree prices\n%s", got.String())
	}
}
