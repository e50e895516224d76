package riskbench

import (
	"context"
	"net/http"
	"sync/atomic"

	"riskbench/internal/bench"
	"riskbench/internal/mpi"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
)

// Telemetry is a metrics registry: counters, gauges, latency histograms
// and spans. A nil *Telemetry is a valid no-op sink.
type Telemetry = telemetry.Registry

// Metrics is a frozen JSON-serializable snapshot of a Telemetry registry.
type Metrics = telemetry.Snapshot

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// MetricsHandler serves reg's snapshot as indented JSON, the endpoint the
// CLI tools expose behind their -telemetry flag.
func MetricsHandler(reg *Telemetry) http.Handler { return telemetry.Handler(reg) }

// processSink is the registry last installed by SetTelemetry; Snapshot
// falls back to the package default when none was installed.
var processSink atomic.Pointer[telemetry.Registry]

// SetTelemetry installs reg as the process-wide sink of the layers whose
// hot functions take no registry parameter: the pricing library
// (per-method compute time and work-unit throughput) and the message
// layer (messages/bytes per rank, pack/unpack time). Farm- and
// engine-level metrics are wired per call instead, through WithTelemetry
// or RiskEngine.Telemetry. Pass nil to disable the process-wide layers.
func SetTelemetry(reg *Telemetry) {
	premia.SetTelemetry(reg)
	mpi.SetTelemetry(reg)
	processSink.Store(reg)
}

// Snapshot freezes the process-wide telemetry: the registry installed by
// SetTelemetry, or the shared default registry when none was installed.
func Snapshot() Metrics {
	if reg := processSink.Load(); reg != nil {
		return reg.Snapshot()
	}
	return telemetry.Default.Snapshot()
}

// Sentinel errors of the pricing layer, for errors.Is classification
// through wrapped chains (including errors surfaced by farm results and
// the risk engine).
var (
	ErrUnknownMethod = premia.ErrUnknownMethod
	ErrUnknownModel  = premia.ErrUnknownModel
	ErrUnknownOption = premia.ErrUnknownOption
	ErrMissingParam  = premia.ErrMissingParam
)

// SetKernelThreads installs the process-wide default worker count of the
// multicore pricing kernel: every Problem.Compute whose problem carries
// no explicit "threads" parameter shards its path loop over this many
// goroutines. n < 1 (the initial state) means serial pricing. The result
// of a Monte Carlo method depends only on (seed, paths) — never on the
// thread count — so flipping this knob changes speed, not prices.
func SetKernelThreads(n int) { premia.SetKernelThreads(n) }

// config collects the knobs the functional options set; each consumer
// reads the subset that applies to it.
type config struct {
	workers     int
	batchSize   int
	maxCPUs     int
	strategy    Strategy
	hasStrat    bool
	telemetry   *Telemetry
	cacheSize   int
	hasCache    bool
	maxInflight int
	transport   string
}

// Option configures RunTableWith and NewEngine. Options not meaningful
// for a consumer are ignored: worker count and batch size configure the
// live risk engine, CPU truncation and the strategy override configure
// table sweeps, and the telemetry sink configures both.
type Option func(*config)

// WithWorkers sets the live engine's pricing-goroutine count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithBatchSize sets how many tasks travel per farm message.
func WithBatchSize(n int) Option {
	return func(c *config) { c.batchSize = n }
}

// WithMaxCPUs truncates a table sweep's CPU counts, so quick benchmarks
// run a prefix of the paper's row set.
func WithMaxCPUs(n int) Option {
	return func(c *config) { c.maxCPUs = n }
}

// WithStrategy restricts a table sweep to one communication strategy,
// replacing the spec's strategy list.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s; c.hasStrat = true }
}

// WithTelemetry directs metrics into reg: table sweeps collect the
// per-row telemetry report rendered by Table.Format and merge per-run
// metrics into reg; the engine records its farm and phase metrics there.
func WithTelemetry(reg *Telemetry) Option {
	return func(c *config) { c.telemetry = reg }
}

// WithCache installs a sharded, content-addressed result cache holding
// at most entries pricing results (entries <= 0 selects the default
// size). On an engine, RevalueContext reuses cached base-scenario
// prices and stores the ones it computes (PriceBatch always prices
// fresh); on a pricing server it is the serving-layer cache behind the
// singleflight group, which the server's revaluations share. Identical
// problems — same (model, option, method, params incl. seed) content key
// — return bit-identical cached results.
func WithCache(entries int) Option {
	return func(c *config) { c.cacheSize = entries; c.hasCache = true }
}

// WithTransport selects where an engine's (or pricing server's) farm
// workers live and how frames reach them:
//
//   - "local" or "" (the default): an in-process goroutine world per
//     round — mailboxes, no framing, the fastest same-process shape;
//   - "tcp", "unix" or "inproc": a framed hub world on that transport, with
//     in-process goroutine workers dialing through the real wire — the
//     single-host deployment shape ("unix" skips the TCP/IP stack for
//     same-host pools; "tcp" is what cross-host fleets use).
//
// Framed transports run the versioned wire handshake per connection,
// so mixed-version fleets negotiate down to their common protocol
// subset during rolling upgrades. External worker pools (separate
// processes or hosts) configure risk.NetBackend directly instead.
func WithTransport(name string) Option {
	return func(c *config) { c.transport = name }
}

// WithMaxInflight bounds how many requests a pricing server admits
// concurrently; beyond the bound requests are shed with HTTP 429 +
// Retry-After instead of queueing without limit. Engines ignore it.
func WithMaxInflight(n int) Option {
	return func(c *config) { c.maxInflight = n }
}

// RunTableWith executes a table sweep under a context with options.
// RunTable(spec) is shorthand for RunTableWith(context.Background(),
// spec) with no options.
func RunTableWith(ctx context.Context, spec TableSpec, opts ...Option) (*Table, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.maxCPUs > 0 {
		spec.MaxCPUs = c.maxCPUs
	}
	if c.hasStrat {
		spec.Strategies = []Strategy{c.strategy}
	}
	return bench.RunTableContext(ctx, spec, c.telemetry)
}

// NewEngine returns a live-farm risk engine configured by the options
// (worker count, batch size, result cache, telemetry sink). Its kernel
// width is the process default (SetKernelThreads).
func NewEngine(opts ...Option) *RiskEngine {
	var c config
	for _, o := range opts {
		o(&c)
	}
	e := c.engine()
	if c.hasCache {
		e.Cache = serve.NewCache(c.cacheSize, c.telemetry)
	}
	return e
}

// engine builds the risk engine the options describe, including the
// farm backend the transport selects.
func (c config) engine() *risk.Engine {
	e := &risk.Engine{Workers: c.workers, BatchSize: c.batchSize, Telemetry: c.telemetry}
	if c.transport != "" && c.transport != "local" {
		// Goroutine workers over the real wire, each with its own
		// registry so spans travel by frame, not by shared memory.
		e.Backend = &risk.NetBackend{
			Transport: c.transport,
			Spawn:     risk.GoNetWorkers(func(int) *telemetry.Registry { return telemetry.New() }, 0),
		}
	}
	return e
}

// PriceOutcome is one problem's slot in an Engine.PriceBatch answer:
// the result, whether it came from the cache, and the per-problem
// error.
type PriceOutcome = risk.PriceOutcome

// PricingServer is the production pricing service: an HTTP/JSON front
// end (POST /price, POST /batch, GET /healthz, GET /metrics) whose
// dynamic micro-batcher coalesces concurrent requests into farm
// batches, with a content-addressed result cache, singleflight
// suppression of duplicate in-flight prices, and admission control
// (429 + Retry-After on overload). Stop it with Drain for a graceful
// shutdown that lets in-flight farm batches finish.
type PricingServer = serve.Server

// NewPricingServer builds and starts a pricing service over an engine
// configured by the options: worker count, farm batch size (also the
// micro-batcher's flush size), cache capacity
// (WithCache), admission bound (WithMaxInflight), worker transport
// (WithTransport) and telemetry sink.
// Serve its Handler with any http.Server; see cmd/riskserver for the
// deployable wrapper.
func NewPricingServer(opts ...Option) *PricingServer {
	var c config
	for _, o := range opts {
		o(&c)
	}
	cfg := serve.Config{Engine: c.engine(), MaxBatch: c.batchSize, MaxInflight: c.maxInflight, Telemetry: c.telemetry}
	if c.hasCache {
		cfg.CacheSize = c.cacheSize
		if cfg.CacheSize < 0 {
			cfg.CacheSize = 0 // <= 0 means default size, as WithCache documents
		}
	}
	return serve.New(cfg)
}
