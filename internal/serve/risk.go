package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"riskbench/internal/portfolio"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
	varisk "riskbench/internal/var"
)

// The /risk endpoint family turns the pricing service into a
// risk-management service: on-demand VaR/CVaR reports over a position
// book (POST /risk/report) and a streaming watch mode that re-estimates
// the book's risk every round and emits limit breaches with risk
// levels and recommended actions (POST /risk/watch, NDJSON). Reports
// price through the server's risk engine as one bulk farm batch — the
// outer×inner nested workload — not through the micro-batcher: a
// thousand-scenario revaluation is a sweep, not a thousand point
// lookups.

// Caps on what one /risk request may ask for; bigger studies should use
// the varisk library (or riskbench -var) directly.
const (
	maxRiskClaims    = 4096
	maxRiskScenarios = 65536
	maxRiskTasks     = 1 << 20 // claims × (scenarios+1) for full revaluation
	maxWatchRounds   = 1000
	maxWatchInterval = 60 * time.Second
	// riskWarnFrac is the limit utilization at which a watch round turns
	// from normal to warning (the breach threshold itself is 1).
	riskWarnFrac = 0.75
	// riskScenThreads shards Monte Carlo scenario generation; the draws
	// are bit-identical at any thread count, so this is free throughput.
	riskScenThreads = 4
)

// riskBookJSON selects the position book: a named generator with a
// size, or an inline list of problems.
type riskBookJSON struct {
	Name     string        `json:"name,omitempty"` // one of riskBooks; "" is toy
	N        int           `json:"n,omitempty"`
	Problems []problemJSON `json:"problems,omitempty"`
}

// decodeRiskRequest parses a /risk request body into q, a
// *riskReportRequest or a *riskWatchRequest, answering 400 or 413 itself
// — and reporting false — when it cannot. The inline problems, then their
// parameters, are counted before any is decoded, so a book past
// maxRiskClaims or a problem past maxProblemParams is refused unbuilt.
func decodeRiskRequest(w http.ResponseWriter, r *http.Request, q any) bool {
	body, err := readBody(w, r)
	if err == nil {
		var count struct {
			Portfolio struct {
				Problems []struct{} `json:"problems"`
			} `json:"portfolio"`
		}
		if body, err = countValue(body, &count); err == nil {
			if n := len(count.Portfolio.Problems); n > maxRiskClaims {
				badRequest(w, fmt.Errorf("want at most %d inline problems, got %d", maxRiskClaims, n))
				return false
			}
			var params struct {
				Portfolio struct {
					Problems []problemParams `json:"problems"`
				} `json:"portfolio"`
			}
			_ = json.Unmarshal(body, &params) // a type error is the typed decode's to report
			if err := checkParams(params.Portfolio.Problems); err != nil {
				badRequest(w, err)
				return false
			}
			err = json.Unmarshal(body, q)
		}
	}
	if err != nil {
		refuseBody(w, err)
		return false
	}
	return true
}

// build is the book the request selects; decodeRiskRequest has already
// refused an inline book past maxRiskClaims.
func (j riskBookJSON) build() (*portfolio.Portfolio, error) {
	if len(j.Problems) > 0 {
		if j.Name != "" {
			return nil, fmt.Errorf("give a portfolio name or inline problems, not both")
		}
		pf := &portfolio.Portfolio{Name: "inline"}
		for i, pj := range j.Problems {
			p := pj.toProblem()
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("problem %d: %w", i, err)
			}
			pf.Items = append(pf.Items, portfolio.Item{Name: fmt.Sprintf("p%05d", i+1), Problem: p, Cost: 1})
		}
		return pf, nil
	}
	n := j.N
	if n <= 0 {
		n = 100
	}
	if n > maxRiskClaims {
		return nil, fmt.Errorf("book size %d exceeds the %d-claim request cap", n, maxRiskClaims)
	}
	name := j.Name
	if name == "" {
		name = "toy"
	}
	if !slices.Contains(riskBooks, name) {
		return nil, fmt.Errorf("/risk does not serve portfolio %q (want %s, or inline problems)", name, strings.Join(riskBooks, ", "))
	}
	return portfolio.ByName(name, n)
}

// riskBooks are the named books /risk serves. The realistic book is
// left out: at the paper's Monte Carlo sizes one revaluation of it
// takes hours.
var riskBooks = []string{"toy", "mixed", "regression"}

// riskScenariosJSON selects the scenario set.
type riskScenariosJSON struct {
	// Mode is "mc" (default: Monte Carlo market scenarios), "grid" (the
	// fixed historical-style shock grid) or "stress" (the regulatory
	// stress set).
	Mode string `json:"mode,omitempty"`
	// N is the Monte Carlo sample size (default 256).
	N int `json:"n,omitempty"`
	// Seed fixes the scenario stream (default 1); /risk/watch advances
	// it by one per round.
	Seed uint64 `json:"seed,omitempty"`
	// HorizonDays and the factor-vol/correlation overrides tune the
	// market model; absent fields keep the DefaultMarket calibration.
	HorizonDays float64  `json:"horizon_days,omitempty"`
	SpotVol     *float64 `json:"spot_vol,omitempty"`
	VolVol      *float64 `json:"vol_vol,omitempty"`
	RateVol     *float64 `json:"rate_vol,omitempty"`
	RhoSV       *float64 `json:"rho_sv,omitempty"`
}

func (j riskScenariosJSON) model() varisk.MarketModel {
	m := varisk.DefaultMarket()
	if j.HorizonDays != 0 {
		m.HorizonDays = j.HorizonDays
	}
	if j.SpotVol != nil {
		m.SpotVol = *j.SpotVol
	}
	if j.VolVol != nil {
		m.VolVol = *j.VolVol
	}
	if j.RateVol != nil {
		m.RateVol = *j.RateVol
	}
	if j.RhoSV != nil {
		m.RhoSV = *j.RhoSV
	}
	return m
}

// generate builds the round's scenario set; round shifts the Monte
// Carlo seed for /risk/watch (round 0 = the /risk/report set).
func (j riskScenariosJSON) generate(ctx context.Context, round uint64) ([]risk.Scenario, error) {
	switch j.Mode {
	case "", "mc":
		n := j.N
		if n <= 0 {
			n = 256
		}
		if n > maxRiskScenarios {
			return nil, fmt.Errorf("scenario count %d exceeds the %d cap", n, maxRiskScenarios)
		}
		seed := j.Seed
		if seed == 0 {
			seed = 1
		}
		return j.model().GenerateParallel(ctx, n, seed+round, riskScenThreads)
	case "grid":
		return varisk.HistoricalGrid(), nil
	case "stress":
		return risk.StressScenarios(), nil
	default:
		return nil, fmt.Errorf("unknown scenario mode %q (want mc, grid or stress)", j.Mode)
	}
}

// riskReportRequest is the wire form of POST /risk/report.
type riskReportRequest struct {
	Portfolio riskBookJSON      `json:"portfolio"`
	Scenarios riskScenariosJSON `json:"scenarios"`
	// Alphas are the confidence levels (default {0.99}); attribution
	// runs at Alphas[0].
	Alphas []float64 `json:"alphas,omitempty"`
	// Method is "deltagamma" (default: one six-scenario sensitivity
	// revaluation, then Taylor evaluation) or "full" (every scenario
	// reprices the book through the farm).
	Method string `json:"method,omitempty"`
	// ScaleDays rescales the reported numbers to another horizon by the
	// square-root-of-time rule. It needs a horizon to anchor on: mc mode
	// defaults to the market calibration's, grid/stress require an
	// explicit horizon_days (the request is rejected otherwise).
	ScaleDays float64 `json:"scale_days,omitempty"`
	// Top bounds the component-attribution rows (default 10).
	Top int `json:"top,omitempty"`
}

// config is the estimator configuration the request asks for, or what is
// wrong with it or with its market overrides — judged at the decode, so a
// bad body is a 400 before a claim is built or a task farmed, whatever
// the scenario mode and method.
func (q riskReportRequest) config() (varisk.Config, error) {
	if err := q.Scenarios.model().Validate(); err != nil {
		return varisk.Config{}, err
	}
	horizon := q.Scenarios.HorizonDays
	if horizon == 0 && (q.Scenarios.Mode == "" || q.Scenarios.Mode == "mc") {
		horizon = varisk.DefaultMarket().HorizonDays
	}
	cfg := varisk.Config{
		Alphas:        q.Alphas,
		HorizonDays:   horizon,
		ScaleDays:     q.ScaleDays,
		TopComponents: q.Top,
	}
	return cfg, cfg.Validate()
}

// riskReportJSON is the /risk/report answer: the report, then its time.
type riskReportJSON struct {
	*varisk.Report
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// estimate runs one estimation round. For the delta–gamma method the
// sensitivities are collected on first use and reused across rounds
// (pass the previous return back in); full revaluation ignores sens.
func (s *Server) estimate(ctx context.Context, method string, pf *portfolio.Portfolio, scens []risk.Scenario, cfg varisk.Config, sens *varisk.Sensitivities) (*varisk.Report, *varisk.Sensitivities, error) {
	switch method {
	case "", "deltagamma":
		if sens == nil {
			var err error
			sens, err = varisk.CollectSensitivities(ctx, *s.engine, pf)
			if err != nil {
				return nil, nil, err
			}
		}
		rep, err := varisk.DeltaGamma(sens, scens, cfg)
		return rep, sens, err
	case "full":
		if tasks := len(pf.Items) * (len(scens) + 1); tasks > maxRiskTasks {
			return nil, nil, fmt.Errorf("full revaluation of %d claims × %d scenarios is %d tasks, over the %d cap — use method deltagamma or shrink the request", len(pf.Items), len(scens), tasks, maxRiskTasks)
		}
		rep, err := varisk.FullReval(ctx, *s.engine, pf, scens, cfg)
		return rep, sens, err
	default:
		return nil, nil, fmt.Errorf("unknown method %q (want full or deltagamma)", method)
	}
}

// handleRiskIndex describes the endpoint family, so GET /risk is a
// cheap liveness probe for the risk surface (the smoke test asserts it).
func (s *Server) handleRiskIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"endpoints": map[string]string{
			"POST /risk/report": "one VaR/CVaR report over a position book",
			"POST /risk/watch":  "streaming NDJSON limit-breach watch over a position book",
		},
		"methods":    []string{"deltagamma", "full"},
		"portfolios": append(slices.Clone(riskBooks), "inline problems"),
		"scenarios":  []string{"mc", "grid", "stress"},
	})
}

func (s *Server) handleRiskReport(w http.ResponseWriter, r *http.Request) {
	start := s.reg.Now()
	var q riskReportRequest
	if !decodeRiskRequest(w, r, &q) {
		return
	}
	cfg, err := q.config()
	if err != nil {
		badRequest(w, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// The report roots one trace; the estimator's var.* spans and the
	// farm tree below them parent onto it, so /debug/traces shows the
	// outer estimation over the inner revaluation.
	ctx, span := s.trace(ctx, "serve.risk.report")
	defer span.End()
	pf, err := q.Portfolio.build()
	if err != nil {
		badRequest(w, err)
		return
	}
	scens, err := q.Scenarios.generate(ctx, 0)
	if err != nil {
		badRequest(w, err)
		return
	}
	s.reg.Counter("serve.risk.scenarios").Add(int64(len(scens)))
	rep, _, err := s.estimate(ctx, q.Method, pf, scens, cfg, nil)
	if err != nil {
		if ctx.Err() != nil || r.Context().Err() != nil {
			s.writeError(w, r, ctx.Err())
			return
		}
		badRequest(w, err)
		return
	}
	writeJSON(w, http.StatusOK, riskReportJSON{rep, s.reg.Now() - start})
}

// riskWatchRequest is the wire form of POST /risk/watch.
type riskWatchRequest struct {
	riskReportRequest
	// Limits are the compliance limits the watch checks each round
	// (zero = unchecked). Values are in book-currency loss units, like
	// the report's VaR/CVaR numbers.
	Limits struct {
		VaR  float64 `json:"var,omitempty"`
		CVaR float64 `json:"cvar,omitempty"`
	} `json:"limits"`
	// Rounds bounds the stream length (default 3, max 1000).
	Rounds int `json:"rounds,omitempty"`
	// IntervalMS sleeps between rounds (default 0, max 60000). Drain
	// waits for the round in flight, so keep watches short-lived; this
	// is a monitoring stream, not a subscription bus.
	IntervalMS int `json:"interval_ms,omitempty"`
}

type riskBreachJSON struct {
	Metric      string  `json:"metric"`
	Value       float64 `json:"value"`
	Limit       float64 `json:"limit"`
	Utilization float64 `json:"utilization"`
	Level       string  `json:"level"`
	Action      string  `json:"action"`
}

// riskWatchEventJSON is one NDJSON line of the watch stream: the
// round's risk estimate at the first confidence level, the overall risk
// level/action (the worst across checked limits, in the shape of the
// Heston-trading compliance engine), and the individual breaches.
type riskWatchEventJSON struct {
	Round     int              `json:"round"`
	BaseValue float64          `json:"base_value"`
	Alpha     float64          `json:"alpha"`
	VaR       float64          `json:"var"`
	CVaR      float64          `json:"cvar"`
	Level     string           `json:"level"`
	Action    string           `json:"action"`
	Breaches  []riskBreachJSON `json:"breaches,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// riskLevel grades a limit utilization: breached limits demand a halt,
// approaching ones (≥ riskWarnFrac) a position reduction.
func riskLevel(utilization float64) (level, action string) {
	switch {
	case utilization >= 1:
		return "critical", "halt"
	case utilization >= riskWarnFrac:
		return "warning", "reduce"
	default:
		return "normal", "none"
	}
}

// levelRank orders risk levels for the round-wide maximum.
func levelRank(level string) int {
	switch level {
	case "critical":
		return 2
	case "warning":
		return 1
	default:
		return 0
	}
}

func (s *Server) handleRiskWatch(w http.ResponseWriter, r *http.Request) {
	var q riskWatchRequest
	if !decodeRiskRequest(w, r, &q) {
		return
	}
	rounds := q.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	if rounds > maxWatchRounds {
		rounds = maxWatchRounds
	}
	interval := time.Duration(q.IntervalMS) * time.Millisecond
	if interval > maxWatchInterval {
		interval = maxWatchInterval
	}
	pf, err := q.Portfolio.build()
	if err != nil {
		badRequest(w, err)
		return
	}
	cfg, err := q.config()
	if err != nil {
		// Reject before the 200 header commits the NDJSON stream.
		badRequest(w, err)
		return
	}
	// The stream lives on the client's context (a watch may legitimately
	// outlast the per-request pricing timeout); each round's pricing
	// still runs under the configured timeout.
	streamCtx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var sens *varisk.Sensitivities
	var timer *time.Timer
	for round := 1; round <= rounds; round++ {
		if streamCtx.Err() != nil {
			return
		}
		if s.drainingNow() {
			// The server is shutting down: emit a final advisory line and
			// end the stream instead of holding Drain hostage.
			_ = enc.Encode(riskWatchEventJSON{Round: round, Level: "critical", Action: "halt", Error: ErrDraining.Error()})
			return
		}
		event := s.watchRound(streamCtx, &q, pf, cfg, round, &sens)
		if err := enc.Encode(event); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		s.reg.Counter("serve.risk.watch.rounds").Add(1)
		if event.Error != "" {
			return
		}
		if round < rounds && interval > 0 {
			if timer == nil {
				timer = time.NewTimer(interval)
				defer timer.Stop()
			} else {
				timer.Reset(interval)
			}
			select {
			case <-timer.C:
			case <-streamCtx.Done():
				return
			}
		}
	}
}

// watchRound estimates one round and grades it against the limits.
func (s *Server) watchRound(streamCtx context.Context, q *riskWatchRequest, pf *portfolio.Portfolio, cfg varisk.Config, round int, sens **varisk.Sensitivities) riskWatchEventJSON {
	ctx, cancel := context.WithTimeout(streamCtx, s.cfg.RequestTimeout)
	defer cancel()
	ctx, span := s.trace(ctx, "serve.risk.watch_round")
	defer span.End()
	// Each round draws a fresh deterministic scenario set: seed+round,
	// so the stream is reproducible end to end.
	scens, err := q.Scenarios.generate(ctx, uint64(round))
	if err != nil {
		return riskWatchEventJSON{Round: round, Level: "normal", Action: "none", Error: err.Error()}
	}
	s.reg.Counter("serve.risk.scenarios").Add(int64(len(scens)))
	rep, newSens, err := s.estimate(ctx, q.Method, pf, scens, cfg, *sens)
	if err != nil {
		return riskWatchEventJSON{Round: round, Level: "normal", Action: "none", Error: err.Error()}
	}
	*sens = newSens
	est := rep.Estimates[0]
	event := riskWatchEventJSON{
		Round:     round,
		BaseValue: rep.BaseValue,
		Alpha:     est.Alpha,
		VaR:       est.VaR,
		CVaR:      est.CVaR,
		Level:     "normal",
		Action:    "none",
	}
	check := func(metric string, value, limit float64) {
		if limit <= 0 {
			return
		}
		u := value / limit
		level, action := riskLevel(u)
		if level == "normal" {
			return
		}
		// A limit breach lands in the flight recorder under the round's
		// trace, so /debug/events?trace=<id> jumps straight to the
		// revaluation tree that produced the breaching number. A breached
		// limit is an error, an approached one a warning.
		evLevel := telemetry.LevelWarn
		if level == "critical" {
			evLevel = telemetry.LevelError
		}
		s.reg.Emit(evLevel, "serve.risk.limit_breach", span.Context(),
			telemetry.Str("metric", metric),
			telemetry.Num("value", value),
			telemetry.Num("limit", limit),
			telemetry.Num("utilization", u),
			telemetry.Num("round", float64(round)))
		event.Breaches = append(event.Breaches, riskBreachJSON{
			Metric: metric, Value: value, Limit: limit, Utilization: u, Level: level, Action: action,
		})
		if levelRank(level) > levelRank(event.Level) {
			event.Level, event.Action = level, action
		}
	}
	check("var", est.VaR, q.Limits.VaR)
	check("cvar", est.CVaR, q.Limits.CVaR)
	s.reg.Counter("serve.risk.watch.breaches").Add(int64(len(event.Breaches)))
	return event
}

// drainingNow reports whether Drain has begun.
func (s *Server) drainingNow() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}
