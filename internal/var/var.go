package varisk

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"riskbench/internal/portfolio"
	"riskbench/internal/risk"
)

// Config tunes a VaR/CVaR estimation.
type Config struct {
	// Alphas are the confidence levels to report (default {0.99}).
	// Component attribution is computed at Alphas[0], so list the level
	// whose tail you want attributed first.
	Alphas []float64
	// HorizonDays is the horizon the scenarios were generated at; it is
	// echoed in the report and anchors the ScaleDays rescaling.
	HorizonDays float64
	// ScaleDays, when > 0 together with HorizonDays, rescales the
	// reported VaR/CVaR to a different horizon by the square-root-of-time
	// rule: VaR(ScaleDays) = VaR(HorizonDays)·sqrt(ScaleDays/HorizonDays).
	// The rule is exact for i.i.d. normal P&L and an approximation
	// everywhere else; the raw PnLs sample stays unscaled.
	ScaleDays float64
	// TopComponents bounds how many per-position attribution rows the
	// report keeps (default 10; the total over all claims is always
	// recorded in ComponentTotal).
	TopComponents int
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0.99}
	}
	if cfg.TopComponents <= 0 {
		cfg.TopComponents = 10
	}
	return cfg
}

// Validate rejects configurations the estimators cannot evaluate:
// confidence levels outside (0,1) — which risk.VaR/ExpectedShortfall
// would panic on — and a ScaleDays rescaling with no HorizonDays to
// anchor the square-root-of-time rule (scale() would silently return 1),
// or with a ratio so extreme the factor is not a finite number (every
// figure of the report would be an infinity or a NaN). Both estimators
// call it on entry, so user-supplied levels surface as errors, not panics.
func (cfg Config) Validate() error {
	for _, a := range cfg.Alphas {
		if !(a > 0 && a < 1) {
			return fmt.Errorf("varisk: confidence level %v outside (0,1)", a)
		}
	}
	if cfg.ScaleDays > 0 && cfg.HorizonDays <= 0 {
		return fmt.Errorf("varisk: ScaleDays %g needs HorizonDays > 0 to anchor the square-root-of-time rescaling", cfg.ScaleDays)
	}
	if f := cfg.scale(); math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("varisk: rescaling from HorizonDays %g to ScaleDays %g is not a finite factor", cfg.HorizonDays, cfg.ScaleDays)
	}
	return nil
}

// scale returns the square-root-of-time horizon rescaling factor.
func (cfg Config) scale() float64 {
	if cfg.ScaleDays > 0 && cfg.HorizonDays > 0 {
		return math.Sqrt(cfg.ScaleDays / cfg.HorizonDays)
	}
	return 1
}

// Estimate is one confidence level's VaR/CVaR pair (losses as positive
// numbers, horizon-scaled per the config).
type Estimate struct {
	Alpha float64 `json:"alpha"`
	VaR   float64 `json:"var"`
	CVaR  float64 `json:"cvar"`
}

// Component is one claim's share of the tail loss: the average of its
// P&L over the CVaR tail scenarios, negated and horizon-scaled. The
// components of all claims sum to the book CVaR at the attribution
// level (Euler attribution of expected shortfall). When the tail's
// average P&L is a profit, risk.ExpectedShortfall clamps the book CVaR
// to zero and attribution mirrors the clamp: no components, zero total,
// so the identity holds there too.
type Component struct {
	Name         string  `json:"name"`
	Contribution float64 `json:"contribution"`
}

// Report is the outcome of one VaR estimation; its JSON form, the P&L
// sample left out, is the body /risk/report answers with.
type Report struct {
	// Method is "full" or "deltagamma".
	Method string `json:"method"`
	// BaseValue is the unshocked book value.
	BaseValue float64 `json:"base_value"`
	// Scenarios is the P&L sample size.
	Scenarios int `json:"scenarios"`
	// HorizonDays/ScaleDays echo the config.
	HorizonDays float64 `json:"horizon_days,omitempty"`
	ScaleDays   float64 `json:"scale_days,omitempty"`
	// Estimates holds one row per configured confidence level.
	Estimates []Estimate `json:"estimates"`
	// AttributionAlpha is the level the Components tail was taken at.
	AttributionAlpha float64 `json:"attribution_alpha"`
	// Components are the largest per-claim tail-loss contributions,
	// descending; ComponentTotal is the sum over ALL claims (= the book
	// CVaR at AttributionAlpha, both clamped to zero when the tail is
	// profit-making).
	Components     []Component `json:"components,omitempty"`
	ComponentTotal float64     `json:"component_total"`
	// PnLs is the raw scenario P&L sample, in scenario order, unscaled.
	PnLs []float64 `json:"-"`
	// WireDeltas counts the claims whose first-order spot term came from
	// the delta already shipped over the farm wire rather than a bump
	// (delta–gamma method only).
	WireDeltas int `json:"wire_deltas,omitempty"`
}

// estimates evaluates VaR/CVaR at every configured level.
func estimates(pnls []float64, cfg Config) []Estimate {
	scale := cfg.scale()
	out := make([]Estimate, len(cfg.Alphas))
	for i, a := range cfg.Alphas {
		out[i] = Estimate{
			Alpha: a,
			VaR:   risk.VaR(pnls, a) * scale,
			CVaR:  risk.ExpectedShortfall(pnls, a) * scale,
		}
	}
	return out
}

// tailIndices returns the scenario indices of the CVaR tail at alpha:
// the k = max(1, floor((1-alpha)·n)) scenarios with the lowest P&L,
// matching risk.ExpectedShortfall's tail exactly.
func tailIndices(pnls []float64, alpha float64) []int {
	n := len(pnls)
	if n == 0 {
		return nil
	}
	k := int((1 - alpha) * float64(n))
	if k < 1 {
		k = 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pnls[idx[a]] < pnls[idx[b]] })
	return idx[:k]
}

// attribute builds the component rows from a per-claim tail-P&L
// accessor: itemPnL(s, i) is claim i's P&L in tail scenario s.
func attribute(names []string, tail []int, itemPnL func(s, i int) float64, cfg Config) ([]Component, float64) {
	if len(tail) == 0 {
		return nil, 0
	}
	scale := cfg.scale()
	comps := make([]Component, len(names))
	total := 0.0
	for i, name := range names {
		sum := 0.0
		for _, s := range tail {
			sum += itemPnL(s, i)
		}
		c := -sum / float64(len(tail)) * scale
		comps[i] = Component{Name: name, Contribution: c}
		total += c
	}
	sort.Slice(comps, func(a, b int) bool {
		if comps[a].Contribution != comps[b].Contribution {
			return comps[a].Contribution > comps[b].Contribution
		}
		return comps[a].Name < comps[b].Name
	})
	if total <= 0 {
		// The tail's average book P&L is a profit; the estimators clamp
		// CVaR to zero there, so there is no tail loss to attribute and
		// the components-sum-to-CVaR identity keeps holding.
		return nil, 0
	}
	if len(comps) > cfg.TopComponents {
		comps = comps[:cfg.TopComponents]
	}
	return comps, total
}

// FullReval estimates VaR/CVaR by full revaluation: every scenario
// reprices the whole portfolio through the engine's farm (one flat
// scenario×claim batch — the nested-simulation workload), with the
// engine's content-addressed cache answering the base-scenario column
// when it is warm. The per-claim surface feeds the component-VaR
// attribution. Spans: var.full wraps the engine's risk.revalue tree, so
// /debug/traces shows the outer estimation over the inner repricing.
func FullReval(ctx context.Context, eng risk.Engine, pf *portfolio.Portfolio, scens []risk.Scenario, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := eng.Telemetry
	ctx, span := reg.Start(ctx, "var.full", true)
	defer span.End()
	val, err := eng.RevalueContext(ctx, pf, scens)
	if err != nil {
		return nil, fmt.Errorf("varisk: full revaluation: %w", err)
	}
	reg.Counter("var.full.reports").Add(1)
	reg.Counter("var.full.scenarios").Add(int64(len(scens)))
	pnls := val.PnLs()
	rep := &Report{
		Method:           "full",
		BaseValue:        val.TotalBase(),
		Scenarios:        len(scens),
		HorizonDays:      cfg.HorizonDays,
		ScaleDays:        cfg.ScaleDays,
		Estimates:        estimates(pnls, cfg),
		AttributionAlpha: cfg.Alphas[0],
		PnLs:             pnls,
	}
	tail := tailIndices(pnls, cfg.Alphas[0])
	rep.Components, rep.ComponentTotal = attribute(val.Items, tail, val.ItemPnL, cfg)
	return rep, nil
}

// Sensitivities are the per-claim derivatives the delta–gamma expansion
// evaluates, taken in the scenario coordinates of ShockCoords: xs is
// the relative spot move, xv the relative volatility move, xr the
// absolute rate move.
type Sensitivities struct {
	// Names are the claim names, portfolio order.
	Names []string
	// Base are the claims' unshocked values; BaseValue is their sum.
	Base      []float64
	BaseValue float64
	// DSpot/D2Spot are ∂V/∂xs and ∂²V/∂xs² per claim; DVol is ∂V/∂xv;
	// DRate is ∂V/∂xr. A claim outside a factor's universe (no spot, no
	// vol, no rate parameter) holds zeros there and is flat in that
	// coordinate.
	DSpot, D2Spot, DVol, DRate []float64
	// FromWire marks claims whose DSpot came from the "delta" field the
	// pricer shipped over the farm wire (rescaled by S0 into move
	// coordinates) instead of the central difference.
	FromWire []bool
	// SpotBump/VolBump/RateBump echo the finite-difference bump sizes.
	SpotBump, VolBump, RateBump float64
}

// Default finite-difference bumps for CollectSensitivities, in
// ShockCoords units: ±1% spot, ±5% relative vol, ±10 bp rate.
const (
	defaultSpotBump = 0.01
	defaultVolBump  = 0.05
	defaultRateBump = 0.001
)

// CollectSensitivities measures the portfolio's delta–gamma–vega–rho
// profile with one six-scenario revaluation through the farm (spot
// up/down, vol up/down, rate up/down around the base). Claims whose
// pricer already reports a spot delta over the wire (hasdelta) use that
// analytic delta — rescaled by S0 into relative-move coordinates — for
// the first-order spot term; everything else falls back to the central
// difference. The result is what DeltaGamma evaluates scenarios
// against, collected once and reused across rounds.
func CollectSensitivities(ctx context.Context, eng risk.Engine, pf *portfolio.Portfolio) (*Sensitivities, error) {
	reg := eng.Telemetry
	ctx, span := reg.Start(ctx, "var.sensitivities", true)
	defer span.End()
	hs, hv, hr := defaultSpotBump, defaultVolBump, defaultRateBump
	scens := []risk.Scenario{
		{Name: "dg-spot-up", Shifts: []risk.Shift{{Param: "S0", Rel: hs}}},
		{Name: "dg-spot-dn", Shifts: []risk.Shift{{Param: "S0", Rel: -hs}}},
		{Name: "dg-vol-up", Shifts: []risk.Shift{{Param: risk.VolToken, Rel: hv}}},
		{Name: "dg-vol-dn", Shifts: []risk.Shift{{Param: risk.VolToken, Rel: -hv}}},
		{Name: "dg-rate-up", Shifts: []risk.Shift{{Param: risk.RateToken, Abs: hr}}},
		{Name: "dg-rate-dn", Shifts: []risk.Shift{{Param: risk.RateToken, Abs: -hr}}},
	}
	val, err := eng.RevalueContext(ctx, pf, scens)
	if err != nil {
		return nil, fmt.Errorf("varisk: sensitivity revaluation: %w", err)
	}
	n := len(val.Items)
	s := &Sensitivities{
		Names:    val.Items,
		Base:     val.Base,
		DSpot:    make([]float64, n),
		D2Spot:   make([]float64, n),
		DVol:     make([]float64, n),
		DRate:    make([]float64, n),
		FromWire: make([]bool, n),
		SpotBump: hs, VolBump: hv, RateBump: hr,
	}
	wire := 0
	for i := 0; i < n; i++ {
		b := val.Base[i]
		s.BaseValue += b
		su, sd := val.Values[0][i], val.Values[1][i]
		s.DSpot[i] = (su - sd) / (2 * hs)
		s.D2Spot[i] = (su - 2*b + sd) / (hs * hs)
		s.DVol[i] = (val.Values[2][i] - val.Values[3][i]) / (2 * hv)
		s.DRate[i] = (val.Values[4][i] - val.Values[5][i]) / (2 * hr)
		if val.BaseHasDelta[i] {
			if s0, ok := pf.Items[i].Problem.Params["S0"]; ok && s0 > 0 {
				// dV/dxs = dV/dS · S0 when xs is the relative spot move.
				s.DSpot[i] = val.BaseDelta[i] * s0
				s.FromWire[i] = true
				wire++
			}
		}
	}
	reg.Counter("var.sensitivities.collected").Add(1)
	reg.Counter("var.sensitivities.wire_deltas").Add(int64(wire))
	return s, nil
}

// DeltaGamma estimates VaR/CVaR from the Taylor expansion of the book
// P&L in the scenario coordinates — no repricing at all, so a scenario
// costs a handful of multiplications instead of a farm batch:
//
//	P&L(xs, xv, xr) ≈ A·xs + ½·G·xs² + V·xv + R·xr
//
// with A/G/V/R the book-aggregated sensitivities. Per-claim terms are
// touched only for the tail scenarios, to build the component
// attribution. Every scenario must project onto ShockCoords; anything
// richer needs FullReval.
func DeltaGamma(sens *Sensitivities, scens []risk.Scenario, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(sens.Names)
	var aggA, aggG, aggV, aggR float64
	wire := 0
	for i := 0; i < n; i++ {
		aggA += sens.DSpot[i]
		aggG += sens.D2Spot[i]
		aggV += sens.DVol[i]
		aggR += sens.DRate[i]
		if sens.FromWire[i] {
			wire++
		}
	}
	pnls := make([]float64, len(scens))
	xss := make([]float64, len(scens))
	xvs := make([]float64, len(scens))
	xrs := make([]float64, len(scens))
	for s, sc := range scens {
		xs, xv, xr, ok := ShockCoords(sc)
		if !ok {
			return nil, fmt.Errorf("varisk: scenario %q does not project onto delta–gamma coordinates", sc.Name)
		}
		xss[s], xvs[s], xrs[s] = xs, xv, xr
		pnls[s] = aggA*xs + 0.5*aggG*xs*xs + aggV*xv + aggR*xr
	}
	rep := &Report{
		Method:           "deltagamma",
		BaseValue:        sens.BaseValue,
		Scenarios:        len(scens),
		HorizonDays:      cfg.HorizonDays,
		ScaleDays:        cfg.ScaleDays,
		Estimates:        estimates(pnls, cfg),
		AttributionAlpha: cfg.Alphas[0],
		PnLs:             pnls,
		WireDeltas:       wire,
	}
	tail := tailIndices(pnls, cfg.Alphas[0])
	itemPnL := func(s, i int) float64 {
		xs := xss[s]
		return sens.DSpot[i]*xs + 0.5*sens.D2Spot[i]*xs*xs + sens.DVol[i]*xvs[s] + sens.DRate[i]*xrs[s]
	}
	rep.Components, rep.ComponentTotal = attribute(sens.Names, tail, itemPnL, cfg)
	return rep, nil
}

// Format renders the report as the CLI's table.
func (r *Report) Format() string {
	var b strings.Builder
	horizon := ""
	if r.HorizonDays > 0 {
		horizon = fmt.Sprintf(", horizon %gd", r.HorizonDays)
		if r.ScaleDays > 0 {
			horizon += fmt.Sprintf(" scaled to %gd", r.ScaleDays)
		}
	}
	fmt.Fprintf(&b, "VaR report (%s, %d scenarios%s)\n", r.Method, r.Scenarios, horizon)
	fmt.Fprintf(&b, "base value: %.2f\n", r.BaseValue)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "alpha", "VaR", "CVaR")
	for _, e := range r.Estimates {
		fmt.Fprintf(&b, "%7.2f%% %14.2f %14.2f\n", e.Alpha*100, e.VaR, e.CVaR)
	}
	if len(r.Components) > 0 {
		fmt.Fprintf(&b, "top components at %.2f%% (CVaR attribution, book total %.2f):\n",
			r.AttributionAlpha*100, r.ComponentTotal)
		for _, c := range r.Components {
			fmt.Fprintf(&b, "  %-28s %14.2f\n", c.Name, c.Contribution)
		}
	}
	return b.String()
}
