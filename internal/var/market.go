package varisk

import (
	"context"
	"fmt"
	"math"
	"sync"

	"riskbench/internal/mathutil"
	"riskbench/internal/risk"
)

// MarketModel is the joint distribution of one-period market moves the
// Monte Carlo scenario generator draws from: a three-factor model of
// relative spot moves, relative volatility moves and absolute
// short-rate moves, with lognormal spot and volatility factors (so a
// -99.9% draw cannot push a price or a volatility negative) and a
// normal rate factor, correlated through a 3×3 Cholesky factor.
//
// Factor volatilities are annualized and taken literally: a zero
// SpotVol/VolVol/RateVol switches that factor off entirely and its
// shift is omitted from the generated scenarios, which is how a
// spot-only backtest book avoids skipping claims that carry no
// volatility parameter. A negative one is not "off" but an error: see
// Validate, which GenerateParallel calls before it draws anything. Use
// DefaultMarket for the standard calibration.
type MarketModel struct {
	// SpotVol is the annualized volatility of the relative spot move.
	SpotVol float64
	// VolVol is the annualized volatility of the relative implied-vol
	// move (vol-of-vol).
	VolVol float64
	// RateVol is the annualized volatility of the absolute short-rate
	// move, in rate units (0.009 = 90 bp a year).
	RateVol float64
	// RhoSV and RhoSR are the spot–vol and spot–rate correlations; vol
	// and rate move independently. The classic equity skew is a negative
	// RhoSV: spot down, vol up.
	RhoSV, RhoSR float64
	// HorizonDays is the move horizon in trading days (10 when zero):
	// factor volatilities scale by sqrt(HorizonDays/tradingDays).
	HorizonDays float64
}

// tradingDays is the day-count base of a year.
const tradingDays = 252

// DefaultMarket is the standard scenario-generator calibration: 20%
// spot vol, 50% vol-of-vol, 90 bp rate vol, -60% spot–vol correlation,
// a mild -20% spot–rate correlation, over a 10-day horizon.
func DefaultMarket() MarketModel {
	return MarketModel{
		SpotVol:     0.20,
		VolVol:      0.50,
		RateVol:     0.009,
		RhoSV:       -0.60,
		RhoSR:       -0.20,
		HorizonDays: 10,
	}
}

// Bounds on a MarketModel, each with its reason (DESIGN.md's
// parameter-maxima table).
const (
	// MaxHorizonYears is the longest move horizon, HorizonDays over
	// the 252-day trading year. A VaR horizon is days to a year (the
	// regulatory ones are 1 and 10 days); past a decade the
	// square-root-of-time scaling the model rests on has stopped meaning
	// anything.
	MaxHorizonYears = 10.0
	// MaxHorizonVol is the largest factor volatility over the horizon,
	// s = vol × sqrt(horizon in years). A lognormal factor moves by
	// rel = exp(s·x − s²/2) − 1: at s = 3 a −9-sigma draw still leaves
	// 2·10⁻¹⁴ of the spot, a little further (s ≈ 3.4; s ≈ 8.6 for the
	// median draw) 1 + rel rounds to exactly zero and every kernel refuses
	// the shocked problem. At the default 10-day horizon this admits
	// annual volatilities up to 1500 %.
	MaxHorizonVol = 3.0
)

// Validate rejects a model the generator would turn into a silently
// different distribution or into shocks no kernel can price: a negative
// or non-finite factor volatility (zero is the documented "off"; a
// negative one is not), a horizon that is negative or not finite (zero
// means the default), a horizon past MaxHorizonYears, a factor
// volatility past MaxHorizonVol over the horizon, and a correlation
// outside [−1, 1]. Whether the correlations together are positive
// definite is the Cholesky factor's to say.
func (m MarketModel) Validate() error {
	type field struct {
		name string
		v    float64
	}
	if !(m.HorizonDays >= 0) || math.IsInf(m.HorizonDays, 1) {
		return fmt.Errorf("varisk: HorizonDays %g must be finite and not negative (zero means the default)", m.HorizonDays)
	}
	h := m.horizon()
	if !(h > 0 && h <= MaxHorizonYears) {
		return fmt.Errorf("varisk: HorizonDays %g is a horizon of %.3g years, want one in (0, %g]", m.HorizonDays, h, MaxHorizonYears)
	}
	for _, f := range []field{{"SpotVol", m.SpotVol}, {"VolVol", m.VolVol}, {"RateVol", m.RateVol}} {
		if !(f.v >= 0) {
			return fmt.Errorf("varisk: %s %g must not be negative (zero switches the factor off)", f.name, f.v)
		}
		if s := f.v * math.Sqrt(h); !(s <= MaxHorizonVol) {
			return fmt.Errorf("varisk: %s %g is a volatility of %.3g over the %.3g-year horizon, exceeds %g", f.name, f.v, s, h, MaxHorizonVol)
		}
	}
	for _, f := range []field{{"RhoSV", m.RhoSV}, {"RhoSR", m.RhoSR}} {
		if !(f.v >= -1 && f.v <= 1) {
			return fmt.Errorf("varisk: correlation %s %g outside [-1, 1]", f.name, f.v)
		}
	}
	return nil
}

// horizon returns the move horizon in years.
func (m MarketModel) horizon() float64 {
	days := m.HorizonDays
	if days <= 0 {
		days = 10
	}
	return days / tradingDays
}

// chol returns the lower Cholesky factor of the 3×3 factor correlation
// matrix.
func (m MarketModel) chol() ([]float64, error) {
	c := []float64{
		1, m.RhoSV, m.RhoSR,
		m.RhoSV, 1, 0,
		m.RhoSR, 0, 1,
	}
	l := make([]float64, 9)
	if err := mathutil.Cholesky(c, 3, l); err != nil {
		return nil, fmt.Errorf("varisk: factor correlations are not positive definite: %w", err)
	}
	return l, nil
}

// Generate draws n Monte Carlo market scenarios from the model. Each
// scenario is a joint (spot, vol, rate) move named "mc%06d"; shifts for
// switched-off factors (zero factor vol) are omitted. Equivalent to
// GenerateParallel with one thread — and, by construction, to any other
// thread count.
func (m MarketModel) Generate(n int, seed uint64) ([]risk.Scenario, error) {
	return m.GenerateParallel(context.Background(), n, seed, 1)
}

// GenerateParallel is Generate sharded over threads goroutines. Every
// scenario's draws come from its own split PCG64 stream, derived from
// the seed and the scenario index alone — never from the shard
// partition — and land in an index-addressed slot, so the output is
// bit-identical at any thread count: the same discipline the multicore
// pricing kernel follows (riskvet detrand). Cancelling ctx abandons the
// generation and returns the context's error.
func (m MarketModel) GenerateParallel(ctx context.Context, n int, seed uint64, threads int) ([]risk.Scenario, error) {
	if n < 0 {
		return nil, fmt.Errorf("varisk: negative scenario count %d", n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	l, err := m.chol()
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}
	out := make([]risk.Scenario, n)
	if n == 0 {
		return out, nil
	}
	h := m.horizon()
	sqh := math.Sqrt(h)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Each shard owns a private base RNG reseeded per scenario via
			// SplitInto, so shards never share mutable state and scenario i's
			// stream depends only on (seed, i).
			base := mathutil.NewRNG(seed)
			rng := mathutil.NewRNG(0)
			z := make([]float64, 3)
			x := make([]float64, 3)
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				base.SplitInto(rng, uint64(i))
				z[0], z[1], z[2] = rng.Norm(), rng.Norm(), rng.Norm()
				mathutil.MatVecLower(l, 3, z, x)
				out[i] = m.scenario(i, sqh, h, x)
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// scenario maps one correlated standard-normal triple onto a named
// market scenario.
func (m MarketModel) scenario(i int, sqh, h float64, x []float64) risk.Scenario {
	sc := risk.Scenario{Name: fmt.Sprintf("mc%06d", i)}
	if m.SpotVol > 0 {
		rel := math.Exp(m.SpotVol*sqh*x[0]-0.5*m.SpotVol*m.SpotVol*h) - 1
		sc.Shifts = append(sc.Shifts, risk.Shift{Param: "S0", Rel: rel})
	}
	if m.VolVol > 0 {
		rel := math.Exp(m.VolVol*sqh*x[1]-0.5*m.VolVol*m.VolVol*h) - 1
		sc.Shifts = append(sc.Shifts, risk.Shift{Param: risk.VolToken, Rel: rel})
	}
	if m.RateVol > 0 {
		sc.Shifts = append(sc.Shifts, risk.Shift{Param: risk.RateToken, Abs: m.RateVol * sqh * x[2]})
	}
	return sc
}

// ShockCoords projects a scenario onto the (xs, xv, xr) coordinates the
// delta–gamma expansion evaluates in: the relative spot move, the
// relative volatility move and the absolute rate move. ok is false when
// the scenario shifts anything else (an arbitrary parameter, or a
// mixed relative+absolute shift on one of the three factors), in which
// case only full revaluation can price it.
func ShockCoords(sc risk.Scenario) (xs, xv, xr float64, ok bool) {
	for _, sh := range sc.Shifts {
		switch sh.Param {
		case "S0":
			if sh.Abs != 0 {
				return 0, 0, 0, false
			}
			xs += sh.Rel
		case risk.VolToken:
			if sh.Abs != 0 {
				return 0, 0, 0, false
			}
			xv += sh.Rel
		case risk.RateToken:
			if sh.Rel != 0 {
				return 0, 0, 0, false
			}
			xr += sh.Abs
		default:
			return 0, 0, 0, false
		}
	}
	return xs, xv, xr, true
}

// HistoricalGrid is the historical-style fixed shock set: the cartesian
// spot×vol revaluation grid risk desks maintain, extended with the
// absolute rate-shift ladder. Unlike the Monte Carlo generator it has
// no distributional interpretation — VaR over it is a stress summary,
// not a quantile — but it is deterministic without any seed at all.
func HistoricalGrid() []risk.Scenario {
	scens := risk.Grid(
		[]float64{-0.10, -0.05, -0.02, -0.01, 0.01, 0.02, 0.05, 0.10},
		[]float64{-0.25, -0.10, 0, 0.10, 0.25},
	)
	return append(scens, risk.RateShifts()...)
}
