package risk

import (
	"fmt"
	"sort"

	"riskbench/internal/premia"
)

// VolToken is the pseudo-parameter name that resolves to each model's own
// volatility parameter ("sigma", "sigma0" or "V0") when a shift is
// applied, so one volatility scenario covers a heterogeneous book.
const VolToken = "@vol"

// RateToken resolves to the model's own short-rate parameter: "r" for
// equity and credit models, "r0" for the Vasicek short-rate model.
const RateToken = "@rate"

// rateParam maps a model to its short-rate parameter name.
func rateParam(p *premia.Problem) string {
	if p.Model == premia.ModelVasicek {
		return "r0"
	}
	return "r"
}

// Shift perturbs one parameter: new = old·(1+Rel) + Abs.
type Shift struct {
	// Param is the parameter name, or VolToken for the model's volatility.
	Param string
	// Rel is the relative bump (0.1 = +10%).
	Rel float64
	// Abs is the absolute bump, applied after the relative one.
	Abs float64
}

// Scenario is a named market move: a set of simultaneous shifts.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Shifts are applied together.
	Shifts []Shift
}

// Base is the identity scenario.
var Base = Scenario{Name: "base"}

// resolveParam turns a shift's parameter (possibly a token) into the
// problem's concrete parameter name; ok is false when the problem has no
// such parameter (e.g. a vol shift on a credit claim).
func resolveParam(sh Shift, p *premia.Problem) (string, bool) {
	name := sh.Param
	switch name {
	case VolToken:
		vp, err := premia.VolParam(p.Model)
		if err != nil {
			return "", false
		}
		name = vp
	case RateToken:
		name = rateParam(p)
	}
	_, ok := p.Params[name]
	return name, ok
}

// AppliesTo reports whether every shift of the scenario resolves to a
// parameter the problem actually carries. Claims outside the scenario's
// risk-factor universe (e.g. a credit claim under an equity spot ladder)
// keep their base value instead of failing the revaluation.
func (sc Scenario) AppliesTo(p *premia.Problem) bool {
	for _, sh := range sc.Shifts {
		if _, ok := resolveParam(sh, p); !ok {
			return false
		}
	}
	return true
}

// Apply returns a copy of the problem with every shift applied. A shift
// whose parameter the problem does not carry is an error: callers decide
// between failing (single-asset books) and skipping via AppliesTo
// (mixed books).
func (sc Scenario) Apply(p *premia.Problem) (*premia.Problem, error) {
	q := p.Clone()
	for _, sh := range sc.Shifts {
		name, ok := resolveParam(sh, p)
		if !ok {
			return nil, fmt.Errorf("risk: scenario %q shifts %q, absent from %s", sc.Name, sh.Param, p)
		}
		q.Set(name, sh.shifted(name, q.Params[name]))
	}
	return q, nil
}

// shifted is the value the shift gives the resolved parameter name,
// currently old — the one place a shift becomes a number, whether Apply
// writes it into a copy of the problem or overrides hands it to a sweep.
func (sh Shift) shifted(name string, old float64) float64 {
	if name == "V0" {
		// Variance bumps square: a +x% volatility move is ≈ +2x% in
		// variance. Translate so VolToken means volatility everywhere.
		return old*(1+sh.Rel)*(1+sh.Rel) + sh.Abs
	}
	return old*(1+sh.Rel) + sh.Abs
}

// claimShifts resolves shift parameters against one claim, each distinct
// one once however many scenarios shift it: what resolveParam says and the
// claim's value of the parameter depend on the claim and the parameter
// alone. reset moves it to the next claim, keeping its storage.
type claimShifts struct {
	p        *premia.Problem
	resolved []resolvedShift
}

type resolvedShift struct {
	param, name string
	base        float64
	ok          bool
}

func (c *claimShifts) reset(p *premia.Problem) { c.p, c.resolved = p, c.resolved[:0] }

func (c *claimShifts) resolve(sh Shift) *resolvedShift {
	for i := range c.resolved {
		if c.resolved[i].param == sh.Param {
			return &c.resolved[i]
		}
	}
	name, ok := resolveParam(sh, c.p)
	c.resolved = append(c.resolved, resolvedShift{param: sh.Param, name: name, base: c.p.Params[name], ok: ok})
	return &c.resolved[len(c.resolved)-1]
}

// overrides appends to dst what Apply would set on a copy of the claim c
// resolves against, as (parameter, value) pairs in shift order: a second
// shift of one parameter starts from the first one's value, as it does in
// Apply. ok is false, and dst comes back as it was, when AppliesTo is.
func (sc Scenario) overrides(c *claimShifts, dst []premia.Override) (_ []premia.Override, ok bool) {
	mark := len(dst)
	for _, sh := range sc.Shifts {
		r := c.resolve(sh)
		if !r.ok {
			return dst[:mark], false
		}
		old := r.base
		for _, o := range dst[mark:] {
			if o.Param == r.name {
				old = o.Value
			}
		}
		dst = append(dst, premia.Override{Param: r.name, Value: sh.shifted(r.name, old)})
	}
	return dst, true
}

// Ladder builds one scenario per relative bump of a single parameter,
// named like "S0-10%" / "S0+5%".
func Ladder(param string, rels ...float64) []Scenario {
	out := make([]Scenario, 0, len(rels))
	for _, r := range rels {
		out = append(out, Scenario{
			Name:   fmt.Sprintf("%s%+.0f%%", displayName(param), r*100),
			Shifts: []Shift{{Param: param, Rel: r}},
		})
	}
	return out
}

func displayName(param string) string {
	if param == VolToken {
		return "vol"
	}
	return param
}

// SpotLadder is the standard spot ladder: ±1%, ±2%, ±5%, ±10%, ±20%.
func SpotLadder() []Scenario {
	return Ladder("S0", -0.20, -0.10, -0.05, -0.02, -0.01, 0.01, 0.02, 0.05, 0.10, 0.20)
}

// VolLadder bumps each model's volatility by ±10%, ±25%, ±50% (relative).
func VolLadder() []Scenario {
	return Ladder(VolToken, -0.50, -0.25, -0.10, 0.10, 0.25, 0.50)
}

// RateShifts bumps the short rate by ±10 bp, ±50 bp, ±100 bp (absolute),
// resolving to each model's own rate parameter via RateToken.
func RateShifts() []Scenario {
	bps := []float64{-0.01, -0.005, -0.001, 0.001, 0.005, 0.01}
	out := make([]Scenario, 0, len(bps))
	for _, b := range bps {
		out = append(out, Scenario{
			Name:   fmt.Sprintf("r%+.0fbp", b*10000),
			Shifts: []Shift{{Param: RateToken, Abs: b}},
		})
	}
	return out
}

// StressScenarios are joint moves in the spirit of regulatory stress
// tests: equity crashes with volatility spikes, and a melt-up.
func StressScenarios() []Scenario {
	return []Scenario{
		{Name: "crash-10/vol+25", Shifts: []Shift{{Param: "S0", Rel: -0.10}, {Param: VolToken, Rel: 0.25}}},
		{Name: "crash-20/vol+50", Shifts: []Shift{{Param: "S0", Rel: -0.20}, {Param: VolToken, Rel: 0.50}}},
		{Name: "crash-30/vol+80", Shifts: []Shift{{Param: "S0", Rel: -0.30}, {Param: VolToken, Rel: 0.80}}},
		{Name: "meltup+15/vol-20", Shifts: []Shift{{Param: "S0", Rel: 0.15}, {Param: VolToken, Rel: -0.20}}},
	}
}

// Grid builds the cartesian product of spot and volatility relative
// bumps, the two-dimensional revaluation surface risk systems maintain.
func Grid(spotRels, volRels []float64) []Scenario {
	out := make([]Scenario, 0, len(spotRels)*len(volRels))
	for _, s := range spotRels {
		for _, v := range volRels {
			out = append(out, Scenario{
				Name: fmt.Sprintf("S%+.0f%%/vol%+.0f%%", s*100, v*100),
				Shifts: []Shift{
					{Param: "S0", Rel: s},
					{Param: VolToken, Rel: v},
				},
			})
		}
	}
	return out
}

// VaR returns the empirical value-at-risk at the given confidence level
// from a sample of P&L values (negative = loss): the loss quantile, as a
// positive number. alpha = 0.99 gives the worst 1% loss boundary.
func VaR(pnls []float64, alpha float64) float64 {
	if len(pnls) == 0 {
		return 0
	}
	if alpha <= 0 || alpha >= 1 {
		panic("risk: VaR confidence must be in (0,1)")
	}
	sorted := make([]float64, len(pnls))
	copy(sorted, pnls)
	sort.Float64s(sorted)
	// Lower quantile of the P&L distribution.
	idx := int((1 - alpha) * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	loss := -sorted[idx]
	if loss < 0 {
		return 0
	}
	return loss
}

// ExpectedShortfall returns the average loss beyond the VaR quantile
// (positive number), the coherent companion measure of Basel-style
// frameworks.
func ExpectedShortfall(pnls []float64, alpha float64) float64 {
	if len(pnls) == 0 {
		return 0
	}
	if alpha <= 0 || alpha >= 1 {
		panic("risk: ES confidence must be in (0,1)")
	}
	sorted := make([]float64, len(pnls))
	copy(sorted, pnls)
	sort.Float64s(sorted)
	n := int((1 - alpha) * float64(len(sorted)))
	if n < 1 {
		n = 1
	}
	sum := 0.0
	for _, v := range sorted[:n] {
		sum += v
	}
	es := -sum / float64(n)
	if es < 0 {
		return 0
	}
	return es
}
