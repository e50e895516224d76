package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// Sentinel errors of the serving layer.
var (
	// ErrOverloaded reports that admission control shed the request:
	// either the inflight limit or the batcher queue is full. HTTP
	// callers see it as 429 + Retry-After.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDraining reports that the server is shutting down and admits no
	// new work. HTTP callers see it as 503.
	ErrDraining = errors.New("serve: draining")
)

// The defaults New gives a zero Config field, and riskserver's flags.
const (
	DefaultMaxDelay       = 2 * time.Millisecond
	DefaultMaxInflight    = 256
	DefaultRequestTimeout = 30 * time.Second
)

// Config assembles a Server. The zero value is usable: it prices on a
// default risk.Engine with default batching, caching and admission
// settings.
type Config struct {
	// Engine prices flushed batches via Engine.PriceBatch, and its Batch
	// is the micro-batcher's flush size. Nil means a default engine (4
	// workers, batch risk.DefaultBatchSize, no cache of its own).
	Engine *risk.Engine
	// Price overrides Engine's PriceBatch when non-nil — the test seam
	// that lets load tests count kernel evaluations.
	Price PriceFunc
	// MaxDelay is how long the first request of a batch may wait for
	// company before the batch flushes anyway (default DefaultMaxDelay).
	MaxDelay time.Duration
	// CacheSize is the result cache's total entry capacity; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// MaxInflight bounds concurrently admitted HTTP requests; beyond it
	// requests get 429 + Retry-After (default DefaultMaxInflight). The
	// batcher's request queue holds 4 × the engine's Batch requests, or
	// MaxInflight if that is more.
	MaxInflight int
	// RequestTimeout caps each request's pricing deadline; the effective
	// deadline is the tighter of this and the client's context (default
	// DefaultRequestTimeout).
	RequestTimeout time.Duration
	// Telemetry receives the serve.* metrics; it is also what /metrics
	// serves. Nil creates a private registry so /metrics always works.
	Telemetry *telemetry.Registry
	// DisableTracing turns off the per-request distributed traces (the
	// span trees behind /debug/traces) without touching metrics. The
	// tracing overhead benchmark flips it; production setups normally
	// leave tracing on.
	DisableTracing bool
}

// defaultSLOs are the objectives the server's burn-rate monitor watches
// (served at /debug/slo, gauged as slo.<name>.*): 99%
// of requests priced under 50ms (measured on the span.serve.request
// histogram, whose buckets carry trace-linked exemplars), and a 99.9%
// infrastructure success rate (serve.request_errors over
// serve.requests; a client that hangs up is counted under
// serve.client_cancels instead). Windows are short — 60s/300s — because
// this service is a benchmark harness: breaches should be demonstrable
// in a demo, not after half an hour of sustained load.
func defaultSLOs() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "price_latency", Histogram: "span.serve.request", Threshold: 0.050,
			Target: 0.99, ShortWindow: 60, LongWindow: 300, MaxBurn: 2},
		{Name: "error_rate", ErrorCounter: "serve.request_errors", TotalCounter: "serve.requests",
			Target: 0.999, ShortWindow: 60, LongWindow: 300, MaxBurn: 2},
	}
}

// Server is the pricing service: micro-batcher + content-addressed
// cache + singleflight + admission control over a risk.Engine. Create
// with New, expose with Handler, stop with Drain/Close.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	cache  *Cache // nil when disabled
	flight flightGroup
	batch  *batcher
	engine *risk.Engine // the /risk endpoints' bulk revaluation engine
	fleet  *farm.Fleet  // per-worker health behind /debug/farm
	slo    *telemetry.SLOMonitor
	mux    *http.ServeMux
	cancel context.CancelFunc
	// stopFarm closes the engine's standing farm session.
	stopFarm func() error

	inflight atomic.Int64

	// drainMu orders admission against drain: requests join the reqs
	// WaitGroup under the read lock, Drain flips draining under the
	// write lock, so after Drain acquires the lock no new request can
	// register.
	drainMu  sync.RWMutex
	draining bool
	reqs     sync.WaitGroup
	stopped  sync.Once
}

// New builds and starts a Server: its batcher goroutine runs, and the
// engine's farm session stands once the first round has opened it, until
// Drain or Close.
func New(cfg Config) *Server {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	s := &Server{cfg: cfg, reg: cfg.Telemetry}
	if cfg.CacheSize >= 0 {
		s.cache = NewCache(cfg.CacheSize, s.reg)
	}
	eng := cfg.Engine
	if eng == nil {
		eng = &risk.Engine{}
	}
	if eng.Telemetry == nil {
		eng.Telemetry = s.reg
	}
	if eng.Fleet == nil {
		// One fleet spans every farm run the server dispatches, so
		// /debug/farm accumulates per-worker health across batches.
		eng.Fleet = farm.NewFleet()
	}
	s.fleet = eng.Fleet
	// The engine stands: one farm session of eng.Workers workers, opened
	// by the first round, shared by every flush and every /risk report
	// (both engines below are this one), closed by Drain. A backend that
	// cannot be opened stays one world per round.
	s.stopFarm = eng.Stand()
	if eng.Cache == nil && s.cache != nil {
		// The /risk revaluations read base-scenario prices through the
		// serving cache (and warm it), so a report over a book the /price
		// path has already touched skips the whole base column.
		eng.Cache = s.cache
	}
	s.engine = eng
	// The batcher prices on the same engine. PriceBatch prices what it
	// is given: priceGroup has already looked each problem up in s.cache
	// and settle stores the answer, so a problem is hashed, looked up and
	// stored once.
	price := cfg.Price
	if price == nil {
		price = eng.PriceBatch
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	batch := eng.Batch()
	s.batch = newBatcher(ctx, price, batch, cfg.MaxDelay, max(4*batch, cfg.MaxInflight), s.reg)
	s.startSLO(ctx)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /price", s.admitted("serve.requests", "serve.request_seconds", s.handlePrice))
	s.mux.HandleFunc("POST /batch", s.admitted("serve.requests", "serve.request_seconds", s.handleBatch))
	s.mux.HandleFunc("GET /risk", s.handleRiskIndex)
	s.mux.HandleFunc("POST /risk/report", s.admitted("serve.risk.reports", "serve.risk.report_seconds", s.handleRiskReport))
	s.mux.HandleFunc("POST /risk/watch", s.admitted("serve.risk.watches", "", s.handleRiskWatch))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	telemetry.Mount(s.mux, s.reg)
	s.mux.Handle("GET /debug/slo", telemetry.SLOHandler(s.slo))
	s.mux.HandleFunc("GET /debug/farm", s.handleFarm)
	return s
}

// startSLO builds the burn-rate monitor from defaultSLOs and starts its
// ticker goroutine, bound to the server's lifecycle context.
func (s *Server) startSLO(ctx context.Context) {
	mon, err := telemetry.NewSLOMonitor(s.reg, defaultSLOs()...)
	if err != nil {
		panic(err) // the objectives are constants: a misdeclared one is a bug every New hits
	}
	s.slo = mon
	go s.sloLoop(ctx)
}

// sloLoop drives the burn-rate monitor at a 1s cadence until the server
// stops. The ticker only paces evaluation; the samples themselves are
// stamped from the registry clock, which is why tests drive Tick
// directly under SetClock instead of racing this goroutine.
func (s *Server) sloLoop(ctx context.Context) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.slo.Tick()
		}
	}
}

// farmSessionJSON is the standing session's live state in /debug/farm,
// read off the farm.session.* gauges: the paper's "the nodes are waiting
// for work" is idle_workers above zero while queued_batches is zero, and
// a starved farm is the reverse.
type farmSessionJSON struct {
	OpenRounds    float64 `json:"open_rounds"`
	QueuedBatches float64 `json:"queued_batches"`
	IdleWorkers   float64 `json:"idle_workers"`
}

// handleFarm serves the farm session's state and per-worker fleet
// health — the /debug/farm endpoint.
func (s *Server) handleFarm(w http.ResponseWriter, r *http.Request) {
	workers := s.fleet.Snapshot()
	if workers == nil {
		workers = []farm.WorkerHealth{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Session farmSessionJSON     `json:"session"`
		Workers []farm.WorkerHealth `json:"workers"`
	}{farmSessionJSON{
		OpenRounds:    s.engine.Telemetry.Gauge("farm.session.open_rounds").Value(),
		QueuedBatches: s.engine.Telemetry.Gauge("farm.session.queued_batches").Value(),
		IdleWorkers:   s.engine.Telemetry.Gauge("farm.session.idle_workers").Value(),
	}, workers})
}

// Handler returns the server's HTTP surface: POST /price, POST /batch,
// GET /healthz, GET /metrics (Prometheus text format), GET /metrics.json
// (the JSON snapshot), GET /debug/traces (slowest reassembled request
// traces), GET /debug/events (the structured event log as NDJSON),
// GET /debug/slo (burn-rate monitor status) and GET /debug/farm
// (per-worker fleet health).
func (s *Server) Handler() http.Handler { return s.mux }

// PriceProblem prices one problem through the full serving path —
// cache, singleflight, micro-batcher, farm — waiting for queue space
// rather than shedding load. Infrastructure failures (drain, deadline)
// come back as the error; per-problem validation and pricing failures
// ride in the outcome's Err field.
func (s *Server) PriceProblem(ctx context.Context, p *premia.Problem) (risk.PriceOutcome, error) {
	out, err := s.priceGroup(ctx, []*premia.Problem{p}, true)
	if err != nil {
		return risk.PriceOutcome{}, err
	}
	return out[0], nil
}

// flightSlot is one problem of a request that a flight will answer:
// its index in the request, its content key and the flight — the
// request's own when it leads it, somebody else's when it follows.
type flightSlot struct {
	slot int
	key  string
	call *flightCall
}

// priceGroup is the serving path of every request, /price's one problem
// or /batch's book: per problem, on the caller's goroutine, validate →
// content key → cache → flight → cache double-check; then the problems
// this request leads go to the batcher as one group — one queue entry,
// one flush, one farm round — every leader is settled from the answer,
// and only then are the flights others lead waited on (a duplicate
// inside the request follows its first occurrence, so it is answered by
// then). The outcomes are index-aligned with the problems. wait selects
// the queue-full behaviour: block (in-process callers, /batch —
// backpressure) or fail with ErrOverloaded (/price — load shedding).
func (s *Server) priceGroup(ctx context.Context, problems []*premia.Problem, wait bool) ([]risk.PriceOutcome, error) {
	out := make([]risk.PriceOutcome, len(problems))
	var leaders, followers []flightSlot
	for i, p := range problems {
		if err := p.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		key := p.ContentKey()
		if s.cache != nil {
			if res, ok := s.cache.Get(key); ok {
				out[i] = risk.PriceOutcome{Result: res, Cached: true}
				continue
			}
		}
		call, leader := s.flight.begin(key)
		if !leader {
			s.reg.Counter("serve.singleflight.shared").Add(1)
			followers = append(followers, flightSlot{i, key, call})
			continue
		}
		if s.cache != nil {
			// Double-check after winning leadership: the previous leader may
			// have settled (and cached) between our miss and our begin, and
			// pricing again would break the one-evaluation-per-key contract.
			if res, ok := s.cache.Get(key); ok {
				out[i] = risk.PriceOutcome{Result: res, Cached: true}
				s.flight.finish(key, call, out[i], nil)
				continue
			}
		}
		if leaders == nil {
			leaders = make([]flightSlot, 0, len(problems)-i)
		}
		leaders = append(leaders, flightSlot{i, key, call})
	}
	if len(leaders) > 0 {
		if err := s.priceLeaders(ctx, problems, leaders, out, wait); err != nil {
			return nil, err
		}
	}
	for _, f := range followers {
		select {
		case <-f.call.done:
			if f.call.err != nil {
				return nil, f.call.err
			}
			out[f.slot] = f.call.outcome
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// priceLeaders submits the problems a request leads as one group, waits
// for the batch that carries them and settles every flight from it,
// filling the leaders' slots of out.
func (s *Server) priceLeaders(ctx context.Context, problems []*premia.Problem, leaders []flightSlot, out []risk.PriceOutcome, wait bool) error {
	req := &priceRequest{problems: problems, done: make(chan priceResponse, 1)}
	if len(leaders) < len(problems) {
		req.problems = make([]*premia.Problem, len(leaders))
		for k, l := range leaders {
			req.problems[k] = problems[l.slot]
		}
	}
	if !s.cfg.DisableTracing {
		// A request roots one trace. A lone problem is its own request:
		// its flight leader opens the serve.request root here and the
		// batcher ends it. A /batch arrives with its root already open and
		// only queues under it. Either way the batcher ends the queue span
		// at flush and prices the whole batch under the first request's
		// trace, so /debug/traces shows queue wait, batch delay, dispatch
		// and worker compute.
		if tc, ok := telemetry.TraceFromContext(ctx); ok {
			req.trace = tc
		} else {
			req.span = s.reg.StartTrace("serve.request")
			req.trace = req.span.Context()
		}
		req.queue = s.reg.StartSpanIn(req.trace, "serve.queue")
	}
	var err error
	if wait {
		err = s.batch.submitWait(ctx, req)
	} else if !s.batch.submit(req) {
		err = ErrOverloaded
		s.reg.Counter("serve.rejected.queue").Add(1)
		s.reg.Emit(telemetry.LevelWarn, "serve.reject.queue", req.trace,
			telemetry.Num("queue_cap", float64(cap(s.batch.in))))
	}
	if err != nil {
		req.queue.End()
		req.span.End()
		s.settle(leaders, priceResponse{err: err}, nil)
		return err
	}
	select {
	case resp := <-req.done:
		s.settle(leaders, resp, out)
		return resp.err
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.reg.Emit(telemetry.LevelWarn, "serve.request.deadline", req.trace,
				telemetry.Num("timeout_seconds", s.cfg.RequestTimeout.Seconds()))
		}
		// The request's deadline expired but the batch is still pricing.
		// Hand completion to a goroutine so waiters unblock and the
		// results still land in the cache — the work is not wasted.
		go func() { s.settle(leaders, <-req.done, nil) }()
		return ctx.Err()
	}
}

// settle publishes a batch response, index-aligned with the leaders, to
// the cache and the flight group — and to the leaders' slots of out,
// when the request is still there to read them.
func (s *Server) settle(leaders []flightSlot, resp priceResponse, out []risk.PriceOutcome) {
	for k, l := range leaders {
		var outcome risk.PriceOutcome
		if resp.err == nil {
			outcome = resp.outcomes[k]
			if outcome.Err == nil && s.cache != nil {
				s.cache.Put(l.key, outcome.Result)
			}
		}
		s.flight.finish(l.key, l.call, outcome, resp.err)
		if out != nil {
			out[l.slot] = outcome
		}
	}
}

// admitted wraps a pricing endpoint in the prologue they all share:
// admission against the inflight limit and the drain (shed requests never
// reach h), the endpoint's request counter and, when seconds names one,
// its latency histogram.
func (s *Server) admitted(counter, seconds string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.admit(); err != nil {
			s.writeError(w, r, err)
			return
		}
		defer s.release()
		s.reg.Counter(counter).Add(1)
		if seconds != "" {
			start := s.reg.Now()
			defer func() { s.reg.Observe(seconds, s.reg.Now()-start) }()
		}
		h(w, r)
	}
}

// admit registers one request against the inflight limit; release must
// be called iff it returns nil.
func (s *Server) admit() error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.reg.Counter("serve.rejected.inflight").Add(1)
		s.reg.Emit(telemetry.LevelWarn, "serve.reject.inflight", telemetry.TraceContext{},
			telemetry.Num("inflight", float64(n)),
			telemetry.Num("limit", float64(s.cfg.MaxInflight)))
		return ErrOverloaded
	}
	s.reqs.Add(1)
	s.reg.Gauge("serve.inflight").Set(float64(s.inflight.Load()))
	return nil
}

func (s *Server) release() {
	s.reg.Gauge("serve.inflight").Set(float64(s.inflight.Add(-1)))
	s.reqs.Done()
}

// Drain gracefully shuts the server down: stop admitting, let every
// admitted request (and the farm batches under it) finish, then stop
// the batcher. It returns ctx's error if the wait is cut short, leaving
// the batcher running so in-flight responses are still delivered.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		s.reg.Emit(telemetry.LevelInfo, "serve.drain.begin", telemetry.TraceContext{},
			telemetry.Num("inflight", float64(s.inflight.Load())))
	}
	drainStart := s.reg.Now()
	done := make(chan struct{})
	go func() {
		s.reqs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if !already {
		s.reg.Emit(telemetry.LevelInfo, "serve.drain.end", telemetry.TraceContext{},
			telemetry.Num("waited_seconds", s.reg.Now()-drainStart))
	}
	s.stopped.Do(func() {
		s.batch.close()
		s.cancel()
		// Nothing is in flight any more: the workers get their stop
		// message and are joined. What a worker died of on the way out is
		// logged, not returned — every request has its answer.
		if err := s.stopFarm(); err != nil {
			s.reg.Emit(telemetry.LevelWarn, "serve.farm.stop", telemetry.TraceContext{},
				telemetry.Str("err", err.Error()))
		}
	})
	return nil
}

// Close force-stops the server: cancel in-flight farm batches, then
// drain. Requests caught mid-batch complete with a cancellation error
// rather than being dropped silently.
func (s *Server) Close() error {
	s.cancel()
	return s.Drain(context.Background())
}

// problemJSON is the wire form of a pricing problem.
type problemJSON struct {
	Asset  string             `json:"asset,omitempty"`
	Model  string             `json:"model"`
	Option string             `json:"option"`
	Method string             `json:"method"`
	Params map[string]float64 `json:"params,omitempty"`
	// Seed, when set, installs a full-width 64-bit Monte Carlo seed via
	// Problem.SetSeed (the split "seed"/"seedhi" halves).
	Seed *uint64 `json:"seed,omitempty"`
}

func (j problemJSON) toProblem() *premia.Problem {
	p := premia.New()
	if j.Asset != "" {
		p.SetAsset(j.Asset)
	}
	p.SetModel(j.Model).SetOption(j.Option).SetMethod(j.Method)
	for k, v := range j.Params {
		p.Set(k, v)
	}
	if j.Seed != nil {
		p.SetSeed(*j.Seed)
	}
	return p
}

// resultJSON is the wire form of one pricing outcome.
type resultJSON struct {
	Price    float64 `json:"price"`
	PriceCI  float64 `json:"price_ci,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	HasDelta bool    `json:"has_delta,omitempty"`
	Work     float64 `json:"work,omitempty"`
	Cached   bool    `json:"cached"`
	Error    string  `json:"error,omitempty"`
}

func toResultJSON(o risk.PriceOutcome) resultJSON {
	if o.Err != nil {
		return resultJSON{Error: o.Err.Error()}
	}
	r := o.Result
	return resultJSON{Price: r.Price, PriceCI: r.PriceCI, Delta: r.Delta, HasDelta: r.HasDelta, Work: r.Work, Cached: o.Cached}
}

// writeJSON answers with v. JSON cannot spell a NaN or an infinity, so an
// answer holding one is the server's failure: a 500 saying so, where
// encoding straight onto the wire used to leave an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "serve: answer is not JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client went away before the answer was ready.
const statusClientClosedRequest = 499

// retryAfterSeconds is the Retry-After hint sent with 429 responses.
const retryAfterSeconds = "1"

// maxBodyBytes bounds every POST body: 1 KiB for each problem of a /batch
// at its cap, four times the longest problem of the realistic book (253
// bytes of JSON). A longer body is a 413, read no further.
const maxBodyBytes = maxBatchRequest << 10

// bodyPresizeBytes bounds how much of a body's declared Content-Length
// is allocated before its bytes arrive: a length is only a claim. A
// 256-problem book is about 50 KB.
const bodyPresizeBytes = 1 << 20

// readProblems reads the problems of a /price body (batch false) or of a
// /batch body, answering 400 or 413 itself — and reporting false — when
// it cannot. n counts the problems the body holds; of a book longer than
// maxBatchRequest none is built. The body is read whole and scanned; only
// a body the scanner does not take goes through encoding/json.
func readProblems(w http.ResponseWriter, r *http.Request, batch bool) (problems []*premia.Problem, n int, ok bool) {
	body, err := readBody(w, r)
	if err == nil {
		if problems, ok = scanProblems(body, batch); ok {
			return problems, len(problems), true
		}
		problems, n, err = decodeProblems(body, batch)
	}
	if err != nil {
		refuseBody(w, err)
		return nil, 0, false
	}
	return problems, n, true
}

// decodeProblems is readProblems through encoding/json, for every body
// scanProblems does not take: into problemJSON, then toProblem.
func decodeProblems(body []byte, batch bool) ([]*premia.Problem, int, error) {
	// Each problem's parameters are counted into problemParams before
	// any is built. The value is valid JSON, so the counts' only errors
	// are type errors, the typed decode's to report.
	var count struct {
		problemParams
		Problems []struct{} `json:"problems"`
	}
	value, err := countValue(body, &count)
	if err != nil {
		return nil, 0, err
	}
	if !batch {
		if err := checkParams([]problemParams{count.problemParams}); err != nil {
			return nil, 0, err
		}
		var pj problemJSON
		if err := json.Unmarshal(value, &pj); err != nil {
			return nil, 0, err
		}
		return []*premia.Problem{pj.toProblem()}, 1, nil
	}
	n := len(count.Problems)
	if n > maxBatchRequest {
		// Too long a book: its first maxBatchRequest problems are still
		// counted and type-checked, the rest skipped, none built.
		var params struct {
			Problems [maxBatchRequest]problemParams `json:"problems"`
		}
		_ = json.Unmarshal(value, &params)
		if err := checkParams(params.Problems[:]); err != nil {
			return nil, 0, err
		}
		var head struct {
			Problems *[maxBatchRequest]problemJSON `json:"problems"`
		}
		return nil, n, json.Unmarshal(value, &head)
	}
	var params struct {
		Problems []problemParams `json:"problems"`
	}
	_ = json.Unmarshal(value, &params)
	if err := checkParams(params.Problems); err != nil {
		return nil, 0, err
	}
	var book struct {
		Problems []problemJSON `json:"problems"`
	}
	if err := json.Unmarshal(value, &book); err != nil {
		return nil, 0, err
	}
	problems := make([]*premia.Problem, len(book.Problems))
	for i := range problems {
		problems[i] = book.Problems[i].toProblem()
	}
	return problems, len(problems), nil
}

// refuseBody answers a body that could not be read or decoded: 413 when
// it is longer than maxBodyBytes, 400 with the reason otherwise.
func refuseBody(w http.ResponseWriter, err error) {
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("request body exceeds %d bytes", tooLong.Limit)})
		return
	}
	badRequest(w, fmt.Errorf("bad request body: %v", err))
}

// readBody reads a POST body whole, at most maxBodyBytes of it. A body
// that declares a longer Content-Length is refused before a byte is read;
// a declared length is otherwise only a claim, so no more than
// bodyPresizeBytes is allocated ahead of the bytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	var body bytes.Buffer
	if r.ContentLength > 0 {
		body.Grow(int(min(r.ContentLength, bodyPresizeBytes)) + bytes.MinRead) // a short body reads with no regrowth
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return body.Bytes(), err
}

// countValue decodes the first JSON value of body into count, a shape
// whose lists hold elements of no size, which cost nothing however many
// the body holds, and returns the value's bytes; what follows the value is
// ignored, as a streaming decode ignores it. Decode finds a syntax error
// before it stores anything, so any error but a type error is final; a
// type error is the typed decode's to report.
func countValue(body []byte, count any) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(count); err != nil && !errors.As(err, new(*json.UnmarshalTypeError)) {
		return nil, err
	}
	return body[:dec.InputOffset()], nil
}

// maxProblemParams bounds the parameters one problem may spell; the
// books' largest carry 12. Each reader counts them into problemParams
// before it builds a problem's map.
const maxProblemParams = 64

// problemParams is a problem counted, not built.
type problemParams struct {
	Params keyCount `json:"params"`
}

// keyCount counts the members of the objects decoded into it, allocating
// nothing a member: a problem's repeated "params" add up, as encoding/json
// merges them into one map. Any other value counts nothing.
type keyCount int

func (c *keyCount) UnmarshalJSON(b []byte) error {
	depth := 0 // b is valid JSON: a colon at depth 1, outside strings, ends a key
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ':':
			if depth == 1 {
				*c++
			}
		}
	}
	return nil
}

// checkParams refuses the first problem counted past maxProblemParams.
func checkParams(problems []problemParams) error {
	for i, p := range problems {
		if p.Params > maxProblemParams {
			return fmt.Errorf("problem %d has %d parameters, more than %d", i, p.Params, maxProblemParams)
		}
	}
	return nil
}

// badRequest answers a client mistake: 400 with the reason, and no
// charge to the error budget.
func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// writeError maps serving errors onto HTTP statuses. Every error it
// writes is an infrastructure failure (shed, drain, deadline, internal),
// so it also feeds the error-rate SLO's bad-request counter — client
// mistakes (400s) go through badRequest and do not burn budget.
// Nor does a client that hung up: the request's own cancellation is
// neither a success nor a failure of the service, so it is counted on
// its own and the connection nobody reads gets a bare status.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		s.reg.Counter("serve.client_cancels").Add(1)
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	s.reg.Counter("serve.request_errors").Add(1)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// requestContext derives the pricing deadline: the client context
// capped by the configured per-request timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// trace roots a request's trace, or opens no span when tracing is off.
func (s *Server) trace(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if s.cfg.DisableTracing {
		return ctx, nil
	}
	return s.reg.Start(ctx, name, true)
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	if problems, _, ok := readProblems(w, r, false); ok {
		s.answerPrice(w, r, problems[0])
	}
}

// answerPrice prices the problem of a /price request and answers it.
func (s *Server) answerPrice(w http.ResponseWriter, r *http.Request, p *premia.Problem) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	out, err := s.priceGroup(ctx, []*premia.Problem{p}, false)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if out[0].Err != nil {
		writeJSON(w, http.StatusBadRequest, toResultJSON(out[0]))
		return
	}
	writeJSON(w, http.StatusOK, toResultJSON(out[0]))
}

// maxBatchRequest bounds how many problems one /batch request may
// carry; bigger books should page or use the engine library directly.
const maxBatchRequest = 65536

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if problems, n, ok := readProblems(w, r, true); ok {
		s.answerBatch(w, r, problems, n)
	}
}

// answerBatch prices the problems of a /batch request that holds n of
// them and answers it.
func (s *Server) answerBatch(w http.ResponseWriter, r *http.Request, problems []*premia.Problem, n int) {
	if n == 0 || n > maxBatchRequest {
		badRequest(w, fmt.Errorf("want 1..%d problems, got %d", maxBatchRequest, n))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// One request, one trace: the book queues and prices under this root.
	ctx, root := s.trace(ctx, "serve.request")
	defer root.End()
	// The book is one group: warm problems hit the cache, duplicates
	// coalesce in the flight group, and the rest reach the batcher — and
	// the farm — together.
	outs, err := s.priceGroup(ctx, problems, true)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	results := make([]resultJSON, len(outs))
	for i, out := range outs {
		results[i] = toResultJSON(out)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
