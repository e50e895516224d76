package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// postJSON runs one request through the server's handler in process.
func postJSON(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func getPath(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

const mcBody = `{"model":"BlackScholes1dim","option":"CallEuro","method":"MC_Euro",
	"params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1,"paths":4000},"seed":12345}`

func cfBody(k float64) string {
	return fmt.Sprintf(`{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call",
	"params":{"S0":100,"r":0.04,"sigma":0.2,"K":%g,"T":1}}`, k)
}

// batchBody is a /batch request carrying the given problem bodies.
func batchBody(problems ...string) string {
	return `{"problems":[` + strings.Join(problems, ",") + `]}`
}

// countingEngine wraps a real engine's PriceBatch and counts how many
// problems reach the kernel (i.e. were not absorbed by cache,
// singleflight or batch dedup).
func countingEngine(evals *atomic.Int64) PriceFunc {
	eng := &risk.Engine{Workers: 4}
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		evals.Add(int64(len(problems)))
		return eng.PriceBatch(ctx, problems)
	}
}

// The headline contract: N concurrent identical requests produce
// exactly one kernel evaluation, and every response carries the same
// bit-identical price.
func TestSingleflightOneKernelEvaluation(t *testing.T) {
	var evals atomic.Int64
	reg := telemetry.New()
	s := New(Config{Price: countingEngine(&evals), MaxDelay: time.Millisecond, Telemetry: reg})
	defer s.Close()

	const n = 32
	codes := make([]int, n)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(s, "/price", mcBody)
			codes[i], bodies[i] = w.Code, w.Body.String()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, codes[i], bodies[i])
		}
	}
	var want resultJSON
	if err := json.Unmarshal([]byte(bodies[0]), &want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		var got resultJSON
		if err := json.Unmarshal([]byte(bodies[i]), &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Price) != math.Float64bits(want.Price) ||
			math.Float64bits(got.PriceCI) != math.Float64bits(want.PriceCI) {
			t.Fatalf("response %d differs: %s vs %s", i, bodies[i], bodies[0])
		}
	}
	// The problems are identical: dedup must collapse them to one
	// kernel evaluation however the requests landed in batches.
	if got := evals.Load(); got != 1 {
		t.Fatalf("kernel evaluations = %d, want exactly 1", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.singleflight.shared"]+snap.Counters["serve.cache.hits"] != n-1 {
		t.Fatalf("shared+hits = %d+%d, want %d duplicates absorbed",
			snap.Counters["serve.singleflight.shared"], snap.Counters["serve.cache.hits"], n-1)
	}

	// A later request is a pure cache hit, bit-identical to the fresh price.
	w := postJSON(s, "/price", mcBody)
	var cached resultJSON
	if err := json.Unmarshal(w.Body.Bytes(), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("follow-up request missed the cache")
	}
	if math.Float64bits(cached.Price) != math.Float64bits(want.Price) {
		t.Fatal("cached price is not bit-identical to the fresh price")
	}
	if got := evals.Load(); got != 1 {
		t.Fatalf("cache hit still evaluated the kernel (evals=%d)", got)
	}
}

// A burst over the admission limit gets 429 + Retry-After, not queue
// collapse; the server keeps serving afterwards.
func TestAdmissionControlBurst(t *testing.T) {
	gate := make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		<-gate
		out := make([]risk.PriceOutcome, len(problems))
		for i := range out {
			out[i] = risk.PriceOutcome{Result: premia.Result{Price: 1}}
		}
		return out, nil
	}
	reg := telemetry.New()
	s := New(Config{Price: price, MaxInflight: 2, Engine: &risk.Engine{BatchSize: 1}, MaxDelay: time.Millisecond, Telemetry: reg})
	defer s.Close()

	var wg sync.WaitGroup
	slow := make([]*httptest.ResponseRecorder, 2)
	for i := range slow {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slow[i] = postJSON(s, "/price", cfBody(float64(90+i)))
		}(i)
	}
	// Wait until both slow requests are admitted and counted inflight.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("slow requests never occupied the inflight slots")
		}
		time.Sleep(time.Millisecond)
	}

	// The burst: everything beyond the limit is shed with 429.
	for i := 0; i < 8; i++ {
		w := postJSON(s, "/price", cfBody(float64(200+i)))
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("burst request %d: status %d, want 429", i, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	if got := reg.Snapshot().Counters["serve.rejected.inflight"]; got != 8 {
		t.Fatalf("rejected.inflight = %d, want 8", got)
	}

	close(gate)
	wg.Wait()
	for i, w := range slow {
		if w.Code != http.StatusOK {
			t.Fatalf("slow request %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	// No collapse: the server still prices after the burst.
	if w := postJSON(s, "/price", cfBody(95)); w.Code != http.StatusOK {
		t.Fatalf("post-burst request: status %d", w.Code)
	}
}

// Drain lets every admitted request finish — zero dropped responses —
// and refuses new work with 503.
func TestDrainZeroDroppedResponses(t *testing.T) {
	gate := make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		<-gate
		out := make([]risk.PriceOutcome, len(problems))
		for i, p := range problems {
			out[i] = risk.PriceOutcome{Result: premia.Result{Price: p.Params["K"]}}
		}
		return out, nil
	}
	s := New(Config{Price: price, MaxInflight: 64, Engine: &risk.Engine{BatchSize: 4}, MaxDelay: time.Millisecond})

	const n = 16
	codes := make([]int, n)
	prices := make([]resultJSON, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(s, "/price", cfBody(float64(50+i)))
			codes[i] = w.Code
			_ = json.Unmarshal(w.Body.Bytes(), &prices[i])
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted", s.inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Draining is visible immediately: health flips and new work is refused.
	for {
		if w := getPath(s, "/healthz"); w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if w := postJSON(s, "/price", cfBody(99)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", w.Code)
	}

	close(gate) // let the in-flight batches complete
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("in-flight request %d dropped: status %d", i, codes[i])
		}
		if prices[i].Price != float64(50+i) {
			t.Fatalf("in-flight request %d got price %v, want %v", i, prices[i].Price, float64(50+i))
		}
	}
}

// End-to-end through the real engine: cached and uncached Monte Carlo
// prices are bit-identical.
func TestRealEngineCachedBitIdentical(t *testing.T) {
	s := New(Config{Engine: &risk.Engine{Workers: 2}, MaxDelay: time.Millisecond})
	defer s.Close()
	w1 := postJSON(s, "/price", mcBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", w1.Code, w1.Body.String())
	}
	w2 := postJSON(s, "/price", mcBody)
	var fresh, cached resultJSON
	if err := json.Unmarshal(w1.Body.Bytes(), &fresh); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &cached); err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || !cached.Cached {
		t.Fatalf("cached flags: first=%v second=%v", fresh.Cached, cached.Cached)
	}
	if math.Float64bits(fresh.Price) != math.Float64bits(cached.Price) ||
		math.Float64bits(fresh.PriceCI) != math.Float64bits(cached.PriceCI) ||
		math.Float64bits(fresh.Delta) != math.Float64bits(cached.Delta) {
		t.Fatalf("cached result differs: %+v vs %+v", cached, fresh)
	}
	// Sanity: the MC price is in the Black–Scholes ballpark.
	if fresh.Price < 5 || fresh.Price > 15 {
		t.Fatalf("implausible MC price %v", fresh.Price)
	}
}

// TestColdPriceCountsOneMissPath: the server owns the cache on the
// /price path — the engine behind the batcher, whose Cache is this one
// for the /risk revaluations, must not read or write it again. One cold
// request is the lookup plus the singleflight leader's re-check (two
// misses), one store and one farm round; the same problem again is one
// hit and no farm work.
func TestColdPriceCountsOneMissPath(t *testing.T) {
	s := New(Config{MaxDelay: time.Millisecond})
	defer s.Close()
	p := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 95).Set("T", 1)
	cold, err := s.PriceProblem(context.Background(), p)
	if err != nil || cold.Err != nil || cold.Cached {
		t.Fatalf("cold price = %+v, %v", cold, err)
	}
	snap := s.reg.Snapshot()
	if got := snap.Counters["serve.cache.misses"]; got != 2 {
		t.Errorf("serve.cache.misses = %d after one cold price, want 2 (lookup + leader re-check)", got)
	}
	if got := snap.Gauges["serve.cache.entries"]; got != 1 {
		t.Errorf("serve.cache.entries = %v, want 1", got)
	}
	warm, err := s.PriceProblem(context.Background(), p)
	if err != nil || !warm.Cached || warm.Result != cold.Result {
		t.Fatalf("warm price = %+v, %v; want the cached %+v", warm, err, cold.Result)
	}
	snap = s.reg.Snapshot()
	if hits, rounds := snap.Counters["serve.cache.hits"], snap.Spans["farm.run"].Count; hits != 1 || rounds != 1 {
		t.Errorf("after the warm price: serve.cache.hits = %d, farm rounds = %d; want 1 and 1", hits, rounds)
	}
}

// TestColdPriceAllocs is the serving path's allocation budget: a cold
// /price — HTTP decode, micro-batch flush, object-passthrough farm round,
// kernel, response encode, request trace included — stays within 160
// allocations per request at the recommended batch of 16. Each run is
// exactly one full flush (sixteen concurrent requests, a delay long
// enough never to fire), so the coalescing is not left to the scheduler. The request struct is built
// by hand: httptest.NewRequest's http.ReadRequest parse would charge the
// harness's own 4 KiB bufio reader to the path under test.
func TestColdPriceAllocs(t *testing.T) {
	const batch = 16
	s := New(Config{Engine: &risk.Engine{Workers: 4, BatchSize: batch}, MaxDelay: time.Minute})
	defer s.Close()
	var next atomic.Int64
	flush := func() {
		var wg sync.WaitGroup
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := 50 + float64(next.Add(1))/1000 // a distinct strike: never a cache hit
				req := &http.Request{
					Method: http.MethodPost, URL: &url.URL{Path: "/price"}, RequestURI: "/price",
					Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
					Body: io.NopCloser(strings.NewReader(cfBody(k))), Host: "example.com", RemoteAddr: "192.0.2.1:1234",
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body.String())
				}
			}()
		}
		wg.Wait()
	}
	// Warm the arena pools, the fleet book, the exemplar tables and the
	// event ring outside the measurement.
	s.reg.Emit(telemetry.LevelInfo, "test.alloc.warm", telemetry.TraceContext{})
	flush()
	flush()
	if got := testing.AllocsPerRun(20, flush) / batch; got > 160 {
		t.Errorf("a cold /price allocates %v, budget is 160", got)
	}
}

// TestColdBatchAllocs is the book path's allocation budget: a cold
// 256-problem /batch — one HTTP decode, the per-problem validate → key →
// cache → flight loop on the request goroutine, one group through the
// batcher, one 16-batch round on the standing session, settle, one
// response encode, request trace included — stays within 18 allocations
// per problem: 14.4 when recorded, with the body scanned straight into
// problems (decoded through encoding/json it took 27.4 against a budget of
// 34, about the same 1.25× headroom; the fan-out before the one group, 256
// goroutines regrouped into 16 flushes over 16 worlds, took 47.2).
func TestColdBatchAllocs(t *testing.T) {
	const problems = 256
	s := New(Config{Engine: &risk.Engine{Workers: 4, BatchSize: 16}})
	defer s.Close()
	var next atomic.Int64
	// The harness's own share — 256 Sprintf'd bodies, their join — is
	// measured apart and taken off.
	render := func() string {
		bodies := make([]string, problems)
		for i := range bodies {
			bodies[i] = cfBody(50 + float64(next.Add(1))/1000) // a distinct strike: never a cache hit
		}
		return batchBody(bodies...)
	}
	batch := func() {
		req := &http.Request{
			Method: http.MethodPost, URL: &url.URL{Path: "/batch"}, RequestURI: "/batch",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(render())), Host: "example.com", RemoteAddr: "192.0.2.1:1234",
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("status %d: %s", w.Code, w.Body.String())
		}
	}
	s.reg.Emit(telemetry.LevelInfo, "test.alloc.warm", telemetry.TraceContext{})
	batch()
	batch()
	harness := testing.AllocsPerRun(5, func() { _ = render() })
	if got := (testing.AllocsPerRun(10, batch) - harness) / problems; got > 18 {
		t.Errorf("a cold /batch allocates %v per problem, budget is 18", got)
	}
}

// TestBatchIsOneGroup pins what /batch hands the pricer: the problems
// its request leads, once each, in one flush — cached ones answered
// without reaching it, in-request duplicates following their first
// occurrence.
func TestBatchIsOneGroup(t *testing.T) {
	var (
		mu      sync.Mutex
		flushes [][]float64 // the strikes of each flush
	)
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		strikes := make([]float64, len(problems))
		out := make([]risk.PriceOutcome, len(problems))
		for i, p := range problems {
			strikes[i] = p.Params["K"]
			out[i] = risk.PriceOutcome{Result: premia.Result{Price: p.Params["K"]}}
		}
		mu.Lock()
		flushes = append(flushes, strikes)
		mu.Unlock()
		return out, nil
	}
	// An hour's delay: only a group at least the engine's Batch big can flush.
	s := New(Config{Price: price, Engine: &risk.Engine{BatchSize: 16}, MaxDelay: time.Hour})
	defer s.Close()
	post := func(strikes []float64) []resultJSON {
		t.Helper()
		bodies := make([]string, len(strikes))
		for i, k := range strikes {
			bodies[i] = cfBody(k)
		}
		w := postJSON(s, "/batch", batchBody(bodies...))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d body %s", w.Code, w.Body.String())
		}
		var resp struct {
			Results []resultJSON `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(strikes) {
			t.Fatalf("got %d results for %d problems", len(resp.Results), len(strikes))
		}
		for i, r := range resp.Results {
			if r.Error != "" || r.Price != strikes[i] {
				t.Fatalf("result %d: price %v error %q, want %v", i, r.Price, r.Error, strikes[i])
			}
		}
		return resp.Results
	}

	cold := make([]float64, 256)
	for i := range cold {
		cold[i] = 100 + float64(i)
	}
	for i, r := range post(cold) {
		if r.Cached {
			t.Errorf("cold problem %d answered as cached", i)
		}
	}
	if len(flushes) != 1 || len(flushes[0]) != 256 {
		t.Fatalf("a cold 256-problem /batch reached the pricer as %d flushes, want one of 256", len(flushes))
	}
	seen := map[float64]bool{}
	for _, k := range flushes[0] {
		if seen[k] {
			t.Errorf("strike %v priced twice in one flush", k)
		}
		seen[k] = true
	}

	// Second book: 100 warm problems, then 20 new strikes three times over.
	flushes = nil
	mixed := append([]float64{}, cold[:100]...)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 20; i++ {
			mixed = append(mixed, 500+float64(i))
		}
	}
	for i, r := range post(mixed) {
		if want := i < 100; r.Cached != want {
			t.Errorf("mixed problem %d: cached %v, want %v", i, r.Cached, want)
		}
	}
	if len(flushes) != 1 || len(flushes[0]) != 20 {
		t.Fatalf("100 warm + 3×20 new problems reached the pricer as %v, want one flush of the 20 new strikes", flushes)
	}
	for i, k := range flushes[0] {
		if k != 500+float64(i) {
			t.Errorf("flush slot %d prices strike %v, want %v", i, k, 500+float64(i))
		}
	}
}

// TestServerCloseLeavesNoGoroutine: batcher, SLO ticker, the standing
// session's ranks — everything New and the first round start is
// gone after Close, and after Drain; /debug/farm shows the session's
// workers waiting for work in between and none after.
func TestServerCloseLeavesNoGoroutine(t *testing.T) {
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(time.Millisecond)
			m := runtime.NumGoroutine()
			if m >= n && i > 10 {
				break
			}
			n = m
		}
		return n
	}
	before := settled()
	for _, stop := range []func(*Server) error{
		(*Server).Close,
		func(s *Server) error { return s.Drain(context.Background()) },
	} {
		s := New(Config{Engine: &risk.Engine{Workers: 3}})
		if w := postJSON(s, "/price", cfBody(77)); w.Code != http.StatusOK {
			t.Fatalf("price: status %d body %s", w.Code, w.Body.String())
		}
		if w := getPath(s, "/debug/farm"); !strings.Contains(w.Body.String(), `"idle_workers": 3`) {
			t.Errorf("/debug/farm of an idle 3-worker server: %s", w.Body.String())
		}
		if err := stop(s); err != nil {
			t.Fatal(err)
		}
		if w := getPath(s, "/debug/farm"); !strings.Contains(w.Body.String(), `"idle_workers": 0`) {
			t.Errorf("/debug/farm after the session closed: %s", w.Body.String())
		}
	}
	if after := settled(); after > before {
		t.Errorf("%d goroutines before New, %d after Close", before, after)
	}
}

func TestRequestDeadline(t *testing.T) {
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		time.Sleep(200 * time.Millisecond)
		return make([]risk.PriceOutcome, len(problems)), nil
	}
	s := New(Config{Price: price, RequestTimeout: 20 * time.Millisecond, Engine: &risk.Engine{BatchSize: 1}, MaxDelay: time.Millisecond})
	defer s.Close()
	if w := postJSON(s, "/price", cfBody(90)); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", w.Code)
	}
}

func TestBatchEndpointDedupes(t *testing.T) {
	var evals atomic.Int64
	s := New(Config{Price: countingEngine(&evals), MaxDelay: time.Millisecond})
	defer s.Close()
	var sb strings.Builder
	sb.WriteString(`{"problems":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(cfBody(float64(90 + i%4))) // 4 unique strikes, 3× each
	}
	sb.WriteString(`]}`)
	w := postJSON(s, "/batch", sb.String())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	var resp struct {
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		if math.Float64bits(r.Price) != math.Float64bits(resp.Results[i%4].Price) {
			t.Fatalf("duplicate problem %d priced differently", i)
		}
	}
	if got := evals.Load(); got != 4 {
		t.Fatalf("kernel evaluations = %d, want 4 unique", got)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{Price: func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return make([]risk.PriceOutcome, len(problems)), nil
	}})
	defer s.Close()
	if w := postJSON(s, "/price", "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", w.Code)
	}
	if w := postJSON(s, "/price", `{"model":"x","option":"y","method":"z"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d", w.Code)
	}
	if w := postJSON(s, "/batch", `{"problems":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", w.Code)
	}
	if w := getPath(s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	if w := getPath(s, "/metrics"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "# TYPE ") {
		t.Fatalf("metrics: status %d, body %q not Prometheus text", w.Code, w.Body.String())
	}
	if w := getPath(s, "/metrics.json"); w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
		t.Fatalf("metrics.json: status %d, valid JSON %v", w.Code, json.Valid(w.Body.Bytes()))
	}
	if w := getPath(s, "/debug/traces"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "trace(s) retained") {
		t.Fatalf("debug/traces: status %d, body %q", w.Code, w.Body.String())
	}
}

// TestUnencodableAnswerIsA500: JSON has no NaN, so an answer holding one
// must not go out as a 200 with nothing in it.
func TestUnencodableAnswerIsA500(t *testing.T) {
	s := New(Config{Price: func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return []risk.PriceOutcome{{Result: premia.Result{Price: math.NaN()}}}, nil
	}})
	defer s.Close()
	w := postJSON(s, "/price", cfBody(100))
	if w.Code != http.StatusInternalServerError || !json.Valid(w.Body.Bytes()) || !strings.Contains(w.Body.String(), "NaN") {
		t.Errorf("a NaN price answered %d %q, want a 500 whose JSON body says why", w.Code, w.Body)
	}
}

// TestClientHangUpIsNotARequestError: a client that goes away while its
// price is being computed is neither a success nor an infrastructure
// failure. The request's own cancellation is counted on its own, leaves
// the error-rate SLO's counter alone, and writes no error body to the
// connection nobody reads; a deadline is still a 504 and still counted.
func TestClientHangUpIsNotARequestError(t *testing.T) {
	// The PriceFunc announces each batch and holds it until released, so
	// the request is known to be in flight when its client gives up.
	entered, release := make(chan struct{}), make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		entered <- struct{}{}
		<-release
		return make([]risk.PriceOutcome, len(problems)), nil
	}
	reg := telemetry.New()
	s := New(Config{Price: price, RequestTimeout: time.Second, Engine: &risk.Engine{BatchSize: 1}, MaxDelay: time.Millisecond, Telemetry: reg})
	defer s.Close()
	// serve runs one request; giveUp, when set, is called once it is
	// being priced.
	serve := func(ctx context.Context, path, body string, giveUp context.CancelFunc) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.Handler().ServeHTTP(w, req)
		}()
		<-entered
		if giveUp != nil {
			giveUp()
		}
		<-served
		release <- struct{}{}
		return w
	}
	for _, tc := range []struct{ path, body string }{
		{"/price", cfBody(90)},
		{"/batch", `{"problems":[` + cfBody(91) + `]}`},
	} {
		ctx, hangUp := context.WithCancel(context.Background())
		if w := serve(ctx, tc.path, tc.body, hangUp); w.Code != statusClientClosedRequest || w.Body.Len() != 0 {
			t.Errorf("%s after a hang-up: status %d body %q, want a bare %d", tc.path, w.Code, w.Body, statusClientClosedRequest)
		}
	}
	counters := reg.Snapshot().Counters
	if counters["serve.client_cancels"] != 2 || counters["serve.request_errors"] != 0 {
		t.Fatalf("after two hang-ups: serve.client_cancels %d, serve.request_errors %d; want 2 and 0",
			counters["serve.client_cancels"], counters["serve.request_errors"])
	}

	// A deadline is the service's failure, not the client's.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if w := serve(ctx, "/price", cfBody(92), nil); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d, want 504", w.Code)
	}
	counters = reg.Snapshot().Counters
	if counters["serve.client_cancels"] != 2 || counters["serve.request_errors"] != 1 {
		t.Fatalf("after a deadline: serve.client_cancels %d, serve.request_errors %d; want 2 and 1",
			counters["serve.client_cancels"], counters["serve.request_errors"])
	}
}
