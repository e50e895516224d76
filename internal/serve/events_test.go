package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// TestObservabilityEndpoints prices through the real engine and checks
// the three flight-recorder surfaces: /debug/events serves NDJSON,
// /debug/slo lists the default objectives, and /debug/farm shows the
// workers that actually priced the batch.
func TestObservabilityEndpoints(t *testing.T) {
	s := New(Config{Engine: &risk.Engine{Workers: 2}, MaxDelay: time.Millisecond})
	defer s.Close()
	if w := postJSON(s, "/price", mcBody); w.Code != http.StatusOK {
		t.Fatalf("price: status %d body %s", w.Code, w.Body.String())
	}

	w := getPath(s, "/debug/events")
	if w.Code != http.StatusOK {
		t.Fatalf("debug/events: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Errorf("debug/events content type = %q", ct)
	}
	for _, line := range strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n") {
		if line != "" && !json.Valid([]byte(line)) {
			t.Errorf("debug/events line is not JSON: %q", line)
		}
	}

	w = getPath(s, "/debug/slo")
	if w.Code != http.StatusOK {
		t.Fatalf("debug/slo: status %d", w.Code)
	}
	var slo struct {
		Objectives []telemetry.SLOStatus `json:"objectives"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &slo); err != nil {
		t.Fatalf("debug/slo not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, o := range slo.Objectives {
		names[o.Name] = true
	}
	if !names["price_latency"] || !names["error_rate"] {
		t.Errorf("default objectives missing: %+v", slo.Objectives)
	}

	w = getPath(s, "/debug/farm")
	if w.Code != http.StatusOK {
		t.Fatalf("debug/farm: status %d", w.Code)
	}
	var fleet struct {
		Workers []struct {
			Rank      int   `json:"rank"`
			Completed int64 `json:"completed"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &fleet); err != nil {
		t.Fatalf("debug/farm not JSON: %v", err)
	}
	if len(fleet.Workers) == 0 {
		t.Fatal("debug/farm shows no workers after a priced batch")
	}
	var completed int64
	for _, wk := range fleet.Workers {
		completed += wk.Completed
	}
	if completed == 0 {
		t.Errorf("fleet completed nothing: %+v", fleet.Workers)
	}
}

// TestServeRejectEventEmitted sheds a request over the inflight limit
// and expects the flight recorder to log it, retrievable through the
// endpoint's level filter.
func TestServeRejectEventEmitted(t *testing.T) {
	gate := make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		<-gate
		return make([]risk.PriceOutcome, len(problems)), nil
	}
	reg := telemetry.New()
	s := New(Config{Price: price, MaxInflight: 1, MaxBatch: 1, MaxDelay: time.Millisecond, Telemetry: reg})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		postJSON(s, "/price", cfBody(90))
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never occupied the inflight slot")
		}
		time.Sleep(time.Millisecond)
	}
	if w := postJSON(s, "/price", cfBody(91)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	close(gate)
	<-done

	evs := reg.Events(telemetry.EventFilter{Prefix: "serve.reject.inflight"})
	if len(evs) != 1 {
		t.Fatalf("got %d serve.reject.inflight events, want 1", len(evs))
	}
	if evs[0].Level != telemetry.LevelWarn {
		t.Errorf("reject level = %v, want warn", evs[0].Level)
	}
	w := getPath(s, "/debug/events?level=warn&prefix=serve.reject")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"serve.reject.inflight"`) {
		t.Errorf("filtered endpoint missed the event: status %d body %q", w.Code, w.Body.String())
	}
	if w := getPath(s, "/debug/events?level=loud"); w.Code != http.StatusBadRequest {
		t.Errorf("bad level filter: status %d, want 400", w.Code)
	}
}

// TestServeSLOBreachThroughServer forces a p99 latency breach on the
// live server's monitor under a virtual clock: the gauge flips, the
// breach event links a slow request's trace, and /debug/slo reports it.
func TestServeSLOBreachThroughServer(t *testing.T) {
	reg := telemetry.New()
	clk := 0.0
	reg.SetClock(func() float64 { return clk })
	s := New(Config{Price: func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return make([]risk.PriceOutcome, len(problems)), nil
	}, Telemetry: reg})
	defer s.Close()
	if s.slo == nil {
		t.Fatal("server built no SLO monitor")
	}
	s.slo.Tick() // baseline at t=0
	clk = 1
	for i := 0; i < 20; i++ {
		// Every request blows the 50ms objective; in production these
		// observations come from the serve.request span recorder.
		reg.Histogram("span.serve.request").ObserveExemplar(0.5, uint64(0xf00d+i), clk)
	}
	s.slo.Tick()
	if g := reg.Gauge("slo.price_latency.breached").Value(); g != 1 {
		t.Fatalf("breached gauge = %v, want 1", g)
	}
	begins := reg.Events(telemetry.EventFilter{Prefix: "slo.breach.begin"})
	if len(begins) != 1 {
		t.Fatalf("got %d breach events, want 1", len(begins))
	}
	if tr := begins[0].TraceID; tr < 0xf00d || tr >= 0xf00d+20 {
		t.Errorf("breach trace %x is not one of the slow requests", tr)
	}
	w := getPath(s, "/debug/slo")
	var slo struct {
		Objectives []telemetry.SLOStatus `json:"objectives"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &slo); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range slo.Objectives {
		if o.Name == "price_latency" {
			found = true
			if !o.Breached {
				t.Error("/debug/slo does not report the breach")
			}
			if o.WorstExample == "" {
				t.Error("breached objective has no worst-offender trace")
			}
		}
	}
	if !found {
		t.Fatal("price_latency objective missing from /debug/slo")
	}
}

// TestServeDrainEventsOnce drains twice and expects exactly one
// begin/end event pair — the transition, not every call, is the event.
func TestServeDrainEventsOnce(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Price: func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return make([]risk.PriceOutcome, len(problems)), nil
	}, Telemetry: reg})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Events(telemetry.EventFilter{Prefix: "serve.drain.begin"})); n != 1 {
		t.Errorf("%d drain.begin events, want 1", n)
	}
	if n := len(reg.Events(telemetry.EventFilter{Prefix: "serve.drain.end"})); n != 1 {
		t.Errorf("%d drain.end events, want 1", n)
	}
}
