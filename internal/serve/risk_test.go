package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"riskbench/internal/portfolio"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
	varisk "riskbench/internal/var"
)

func riskServer() *Server {
	return New(Config{Engine: &risk.Engine{Workers: 4}, MaxDelay: time.Millisecond, Telemetry: telemetry.New()})
}

func TestRiskIndex(t *testing.T) {
	s := riskServer()
	defer s.Close()
	w := getPath(s, "/risk")
	if w.Code != 200 {
		t.Fatalf("GET /risk = %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "/risk/report") || !strings.Contains(w.Body.String(), "/risk/watch") {
		t.Errorf("index does not describe the endpoint family: %s", w.Body)
	}
}

func TestRiskReportDeltaGamma(t *testing.T) {
	s := riskServer()
	defer s.Close()
	w := postJSON(s, "/risk/report", `{"portfolio":{"name":"toy","n":16},
		"scenarios":{"mode":"mc","n":128,"seed":7},"alphas":[0.95,0.99]}`)
	if w.Code != 200 {
		t.Fatalf("report = %d: %s", w.Code, w.Body)
	}
	var rep struct {
		Method    string  `json:"method"`
		BaseValue float64 `json:"base_value"`
		Scenarios int     `json:"scenarios"`
		Estimates []struct {
			Alpha, VaR, CVaR float64
		} `json:"estimates"`
		Components []struct {
			Name         string
			Contribution float64
		} `json:"components"`
		WireDeltas int `json:"wire_deltas"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != "deltagamma" || rep.Scenarios != 128 || rep.BaseValue <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Estimates) != 2 || rep.Estimates[0].Alpha != 0.95 {
		t.Fatalf("estimates %+v", rep.Estimates)
	}
	for _, e := range rep.Estimates {
		if e.CVaR < e.VaR {
			t.Errorf("CVaR %v below VaR %v at %v", e.CVaR, e.VaR, e.Alpha)
		}
	}
	if len(rep.Components) == 0 {
		t.Error("no component attribution")
	}

	// Determinism through the wire: the same request reports the same
	// numbers bit for bit.
	w2 := postJSON(s, "/risk/report", `{"portfolio":{"name":"toy","n":16},
		"scenarios":{"mode":"mc","n":128,"seed":7},"alphas":[0.95,0.99]}`)
	var rep2 struct {
		Estimates []struct{ Alpha, VaR, CVaR float64 } `json:"estimates"`
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &rep2); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Estimates {
		if rep.Estimates[i].VaR != rep2.Estimates[i].VaR {
			t.Errorf("repeat request changed VaR: %v vs %v", rep.Estimates[i].VaR, rep2.Estimates[i].VaR)
		}
	}
}

func TestRiskReportFullRevaluation(t *testing.T) {
	s := riskServer()
	defer s.Close()
	w := postJSON(s, "/risk/report", `{"portfolio":{"name":"toy","n":8},
		"scenarios":{"mode":"grid"},"method":"full","alphas":[0.9]}`)
	if w.Code != 200 {
		t.Fatalf("full report = %d: %s", w.Code, w.Body)
	}
	var rep struct {
		Method    string `json:"method"`
		Scenarios int    `json:"scenarios"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != "full" || rep.Scenarios != 46 {
		t.Fatalf("report %+v, want full over the 46-scenario grid", rep)
	}
}

func TestRiskReportBadRequests(t *testing.T) {
	s := riskServer()
	defer s.Close()
	for name, body := range map[string]string{
		"bad json":      `{`,
		"bad portfolio": `{"portfolio":{"name":"nope"}}`,
		// The realistic book is a book, but one revaluation of it at the
		// paper's Monte Carlo sizes takes hours: /risk does not serve it.
		"realistic portfolio": `{"portfolio":{"name":"realistic"}}`,
		"bad method":          `{"method":"quantum"}`,
		"bad mode":            `{"scenarios":{"mode":"astrology"}}`,
		"over task cap":       `{"portfolio":{"name":"toy","n":4096},"scenarios":{"n":4096},"method":"full"}`,
		"over scen cap":       `{"scenarios":{"n":100000}}`,
		"over claim cap":      `{"portfolio":{"n":100000}}`,
		// Confidence levels must be strictly in (0,1) — these used to panic
		// the handler inside risk.VaR instead of 400ing.
		"alpha above 1":  `{"alphas":[1.5]}`,
		"alpha at 1":     `{"alphas":[0.95,1]}`,
		"alpha zero":     `{"alphas":[0]}`,
		"alpha negative": `{"alphas":[-1]}`,
		// scale_days needs a horizon to anchor on; grid mode has none
		// unless horizon_days is set explicitly.
		"scale sans horizon": `{"scenarios":{"mode":"grid"},"scale_days":10}`,
		// Found by FuzzServeBodies: the factor overflows, every figure was a
		// NaN, and the answer an empty 200.
		"scale not finite": `{"scenarios":{"horizon_days":0.1},"scale_days":1e308}`,
	} {
		if w := postJSON(s, "/risk/report", body); w.Code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
	// A book /risk does not serve is refused with the books it does.
	for _, name := range []string{"nope", "realistic"} {
		w := postJSON(s, "/risk/report", `{"portfolio":{"name":"`+name+`"}}`)
		if !strings.Contains(w.Body.String(), "want toy, mixed, regression, or inline problems") {
			t.Errorf("portfolio %q: body %s, want the books /risk serves", name, w.Body)
		}
	}
	// A market override the generator cannot honour is a 400 naming the
	// field, on both endpoints and both methods, before a task is farmed.
	for field, bodies := range badMarketBodies {
		for _, body := range bodies {
			for _, method := range []string{"deltagamma", "full"} {
				body := onSmallBook(body, method)
				for _, path := range []string{"/risk/report", "/risk/watch"} {
					if w := postJSON(s, path, body); w.Code != 400 || !strings.Contains(w.Body.String(), field) {
						t.Errorf("POST %s %s: status %d body %s, want 400 naming %s", path, body, w.Code, w.Body, field)
					}
				}
			}
		}
	}
	if rounds := s.reg.Snapshot().Spans["farm.run"].Count; rounds != 0 {
		t.Errorf("%d farm rounds ran for requests that were all refused", rounds)
	}
}

// TestRiskReportZeroVolIsFactorOff: zero stays the documented way to
// switch a factor off — a 200, and a smaller number than the full
// calibration's, on both methods.
func TestRiskReportZeroVolIsFactorOff(t *testing.T) {
	s := riskServer()
	defer s.Close()
	for _, method := range []string{"deltagamma", "full"} {
		var99 := func(scenarios string) float64 {
			t.Helper()
			w := postJSON(s, "/risk/report", `{"method":"`+method+`","portfolio":{"name":"toy","n":16},"scenarios":`+scenarios+`}`)
			if w.Code != 200 {
				t.Fatalf("%s %s: status %d: %s", method, scenarios, w.Code, w.Body)
			}
			var rep riskReportJSON
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			return rep.Estimates[0].VaR
		}
		full, off := var99(`{"n":128,"seed":7}`), var99(`{"n":128,"seed":7,"spot_vol":0}`)
		if !(off > 0 && off < full) {
			t.Errorf("%s: VaR %v with the spot factor off, %v with it on; want 0 < off < on", method, off, full)
		}
	}
}

// TestRiskReportExtremeMarketsNeverNaN: a full revaluation under a market
// at the corners Validate admits — every factor volatility at
// MaxHorizonVol over MaxHorizonYears, the spot–vol correlation at ±1 —
// ends in a 200 whose every figure is finite, or in a 400 naming the
// cause; never in a 500 or a NaN. On the toy book and on a strided sample
// of the realistic one (every product class, effort ×10⁻³).
func TestRiskReportExtremeMarketsNeverNaN(t *testing.T) {
	s := riskServer()
	defer s.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	real := portfolio.Realistic()
	if err := real.ScaleEffort(1e-3); err != nil {
		t.Fatal(err)
	}
	sample := riskBookJSON{}
	for i := 0; i < len(real.Items); i += 700 {
		p := real.Items[i].Problem
		sample.Problems = append(sample.Problems, problemJSON{Model: p.Model, Option: p.Option, Method: p.Method, Params: p.Params})
	}
	// The largest factor volatility Validate admits over the longest horizon.
	vol := varisk.MaxHorizonVol / math.Sqrt(varisk.MaxHorizonYears)
	for vol*math.Sqrt(varisk.MaxHorizonYears) > varisk.MaxHorizonVol {
		vol = math.Nextafter(vol, 0)
	}
	zero, plus, minus := 0.0, 1.0, -1.0
	markets := map[string]riskScenariosJSON{
		"every factor": {SpotVol: &vol, VolVol: &vol, RateVol: &vol},
		"spot alone":   {SpotVol: &vol, VolVol: &zero, RateVol: &zero},
		"vol alone":    {SpotVol: &zero, VolVol: &vol, RateVol: &zero},
		"rate alone":   {SpotVol: &zero, VolVol: &zero, RateVol: &vol},
		"rho_sv +1":    {SpotVol: &vol, VolVol: &vol, RateVol: &zero, RhoSV: &plus},
		"rho_sv -1":    {SpotVol: &vol, VolVol: &vol, RateVol: &zero, RhoSV: &minus},
	}
	for book, pf := range map[string]riskBookJSON{"toy": {Name: "toy", N: 32}, "realistic sample": sample} {
		for name, m := range markets {
			if err := m.model().Validate(); err != nil {
				t.Fatalf("%s: the corner is not admitted: %v", name, err)
			}
			// With the vol factor alone, seed 4's sixth draw multiplies every
			// volatility 410-fold: each of the sample's barrier claims had its
			// PDE grid overflow into a NaN there. The two corners whose draws
			// shift every volatility and still pass Validate sweep seeds 1–8.
			seeds := []uint64{4}
			if name == "vol alone" || name == "every factor" {
				seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
			}
			for _, seed := range seeds {
				m.Mode, m.N, m.Seed, m.HorizonDays = "mc", 32, seed, varisk.MaxHorizonYears*252
				body, err := json.Marshal(riskReportRequest{Portfolio: pf, Scenarios: m, Method: "full", Alphas: []float64{0.99}})
				if err != nil {
					t.Fatal(err)
				}
				// The reports run side by side: each waits on its slowest
				// claim's sweep and leaves the other cores idle.
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A NaN or an infinity has no JSON form: the server answers a
					// report holding one with a 500, so a 200 is a finite report.
					w := postJSON(s, "/risk/report", string(body))
					switch {
					case w.Code == 200:
						var rep riskReportJSON
						if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || len(rep.Estimates) != 1 {
							t.Errorf("%s, %s, seed %d: %v, a 200 without its estimate: %s", book, name, seed, err, w.Body)
						}
					case w.Code == 400 && (strings.Contains(w.Body.String(), "correlations are not positive definite") || strings.Contains(w.Body.String(), "premia: ")):
					default:
						t.Errorf("%s, %s, seed %d: status %d, want a 200 or a 400 naming the cause: %s", book, name, seed, w.Code, w.Body)
					}
				}()
			}
		}
	}
}

// TestRiskWatchRejectsBadConfigBeforeStreaming: an invalid confidence
// level must 400 up front, not abort the NDJSON stream after a 200.
func TestRiskWatchRejectsBadConfigBeforeStreaming(t *testing.T) {
	s := riskServer()
	defer s.Close()
	for name, body := range map[string]string{
		"alpha above 1":      `{"portfolio":{"n":4},"scenarios":{"n":16},"alphas":[1.5]}`,
		"scale sans horizon": `{"portfolio":{"n":4},"scenarios":{"mode":"stress"},"scale_days":5}`,
	} {
		if w := postJSON(s, "/risk/watch", body); w.Code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
}

// TestRiskWatchStreamsBreaches drives the streaming watch with a limit
// the book is guaranteed to breach and checks the NDJSON stream: one
// event per round, graded critical/halt, with the VaR breach itemized.
func TestRiskWatchStreamsBreaches(t *testing.T) {
	s := riskServer()
	defer s.Close()
	w := postJSON(s, "/risk/watch", `{"portfolio":{"name":"toy","n":8},
		"scenarios":{"mode":"mc","n":64,"seed":3},"alphas":[0.99],
		"limits":{"var":1e-9},"rounds":3}`)
	if w.Code != 200 {
		t.Fatalf("watch = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("Content-Type %q, want NDJSON", ct)
	}
	type watchBreach struct {
		Metric      string  `json:"metric"`
		Utilization float64 `json:"utilization"`
		Action      string  `json:"action"`
	}
	type watchEvent struct {
		Round    int           `json:"round"`
		VaR      float64       `json:"var"`
		Level    string        `json:"level"`
		Action   string        `json:"action"`
		Breaches []watchBreach `json:"breaches"`
		Error    string        `json:"error"`
	}
	var events []watchEvent
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var ev watchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3 rounds", len(events))
	}
	for i, ev := range events {
		if ev.Error != "" {
			t.Fatalf("round %d errored: %s", ev.Round, ev.Error)
		}
		if ev.Round != i+1 || ev.VaR <= 0 {
			t.Fatalf("event %d ill-formed: %+v", i, ev)
		}
		if ev.Level != "critical" || ev.Action != "halt" {
			t.Errorf("round %d level/action = %s/%s, want critical/halt", ev.Round, ev.Level, ev.Action)
		}
		if len(ev.Breaches) != 1 || ev.Breaches[0].Metric != "var" || ev.Breaches[0].Utilization < 1 {
			t.Errorf("round %d breaches %+v, want one var breach", ev.Round, ev.Breaches)
		}
	}
	// Each round draws at seed+round, so consecutive rounds see different
	// scenario sets and (almost surely) different VaR numbers.
	if events[0].VaR == events[1].VaR {
		t.Error("rounds 1 and 2 report identical VaR; seed does not advance")
	}
}

// TestRiskWatchNoLimits: an unlimited watch still streams estimates,
// all graded normal.
func TestRiskWatchNoLimits(t *testing.T) {
	s := riskServer()
	defer s.Close()
	w := postJSON(s, "/risk/watch", `{"portfolio":{"name":"toy","n":4},
		"scenarios":{"n":32},"rounds":2}`)
	if w.Code != 200 {
		t.Fatalf("watch = %d: %s", w.Code, w.Body)
	}
	lines := strings.Count(strings.TrimSpace(w.Body.String()), "\n") + 1
	if lines != 2 {
		t.Fatalf("%d lines, want 2", lines)
	}
	if strings.Contains(w.Body.String(), "critical") {
		t.Error("unlimited watch reported a breach")
	}
}

// TestRiskMetrics: the serve.risk.* counters move when reports run.
func TestRiskMetrics(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Engine: &risk.Engine{Workers: 2}, MaxDelay: time.Millisecond, Telemetry: reg})
	defer s.Close()
	if w := postJSON(s, "/risk/report", `{"portfolio":{"n":4},"scenarios":{"n":16}}`); w.Code != 200 {
		t.Fatalf("report = %d: %s", w.Code, w.Body)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.risk.reports"] != 1 {
		t.Errorf("serve.risk.reports = %d, want 1", snap.Counters["serve.risk.reports"])
	}
	if snap.Counters["serve.risk.scenarios"] != 16 {
		t.Errorf("serve.risk.scenarios = %d, want 16", snap.Counters["serve.risk.scenarios"])
	}
}

// parentReportJSON, its element types and toParentReportJSON are the
// /risk/report answer as serve wrote it before it answered in varisk's
// own Report: a copy of Report, Estimate and Component field for field.
// TestRiskReportBytes holds the answer to them.
type parentReportJSON struct {
	Method         string                `json:"method"`
	BaseValue      float64               `json:"base_value"`
	Scenarios      int                   `json:"scenarios"`
	HorizonDays    float64               `json:"horizon_days,omitempty"`
	ScaleDays      float64               `json:"scale_days,omitempty"`
	Estimates      []parentEstimateJSON  `json:"estimates"`
	Alpha          float64               `json:"attribution_alpha"`
	Components     []parentComponentJSON `json:"components,omitempty"`
	ComponentTotal float64               `json:"component_total"`
	WireDeltas     int                   `json:"wire_deltas,omitempty"`
	ElapsedSeconds float64               `json:"elapsed_seconds"`
}

type parentEstimateJSON struct {
	Alpha float64 `json:"alpha"`
	VaR   float64 `json:"var"`
	CVaR  float64 `json:"cvar"`
}

type parentComponentJSON struct {
	Name         string  `json:"name"`
	Contribution float64 `json:"contribution"`
}

func toParentReportJSON(rep *varisk.Report, elapsed float64) parentReportJSON {
	out := parentReportJSON{
		Method:         rep.Method,
		BaseValue:      rep.BaseValue,
		Scenarios:      rep.Scenarios,
		HorizonDays:    rep.HorizonDays,
		ScaleDays:      rep.ScaleDays,
		Alpha:          rep.AttributionAlpha,
		ComponentTotal: rep.ComponentTotal,
		WireDeltas:     rep.WireDeltas,
		ElapsedSeconds: elapsed,
	}
	for _, e := range rep.Estimates {
		out.Estimates = append(out.Estimates, parentEstimateJSON{Alpha: e.Alpha, VaR: e.VaR, CVaR: e.CVaR})
	}
	for _, c := range rep.Components {
		out.Components = append(out.Components, parentComponentJSON{Name: c.Name, Contribution: c.Contribution})
	}
	return out
}

// TestRiskReportBytes: /risk/report answers real reports of both methods
// in the bytes it answered them in before — with and without components,
// at horizon zero and not, rescaled by scale_days or not, with wire
// deltas and without. The one report the two shapes spell differently is
// one whose Estimates is empty but not nil ([] here, null before); no
// estimator returns one, since Config.withDefaults gives every estimation
// at least one confidence level.
func TestRiskReportBytes(t *testing.T) {
	eng := risk.Engine{Workers: 2}
	pf := portfolio.Toy(12)
	mc, err := riskScenariosJSON{N: 64, Seed: 7}.generate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every toy claim is a long call: a book-wide rally makes the tail a
	// profit, and the report has no components to attribute.
	rally := risk.Grid([]float64{0.02, 0.05}, []float64{0.1})
	sens, err := varisk.CollectSensitivities(context.Background(), eng, pf)
	if err != nil {
		t.Fatal(err)
	}
	horizon := varisk.DefaultMarket().HorizonDays
	cases := []struct {
		name  string
		scens []risk.Scenario
		cfg   varisk.Config
	}{
		{"mc", mc, varisk.Config{Alphas: []float64{0.95, 0.99}, HorizonDays: horizon}},
		{"mc scaled", mc, varisk.Config{HorizonDays: horizon, ScaleDays: 1, TopComponents: 3}},
		{"grid at horizon zero", varisk.HistoricalGrid(), varisk.Config{}},
		{"rally", rally, varisk.Config{HorizonDays: horizon}},
	}
	var components, none, wire int
	for _, c := range cases {
		full, err := varisk.FullReval(context.Background(), eng, pf, c.scens, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := varisk.DeltaGamma(sens, c.scens, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range []*varisk.Report{full, dg} {
			if len(rep.Components) > 0 {
				components++
			} else {
				none++
			}
			if rep.WireDeltas > 0 {
				wire++
			}
			const elapsed = 0.125
			want, err := json.Marshal(toParentReportJSON(rep, elapsed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(riskReportJSON{rep, elapsed})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: answer\n%s\nwant\n%s", c.name, rep.Method, got, want)
			}
		}
	}
	if components == 0 || none == 0 || wire == 0 {
		t.Fatalf("%d reports with components, %d without, %d with wire deltas: want each", components, none, wire)
	}
}
