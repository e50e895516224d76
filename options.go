package riskbench

import (
	"context"
	"net/http"

	"riskbench/internal/bench"
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

// SetTelemetry installs reg as the process-wide sink of the layers whose
// hot functions take no registry parameter: the pricing library
// (per-method compute time and work-unit throughput) and the message
// layer (messages/bytes per rank, pack/unpack time). Engine-level
// metrics go to RiskEngine.Telemetry instead. Pass nil to disable the
// process-wide layers.
func SetTelemetry(reg *Telemetry) { telemetry.SetProcess(reg) }

// Snapshot freezes the process-wide telemetry: the registry installed by
// SetTelemetry, or an empty snapshot when none is installed.
func Snapshot() Metrics { return telemetry.Process().Snapshot() }

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

// config collects what the options set: where an engine's farm workers
// live and how many there are.
type config struct {
	workers   int
	transport string
}

// Option configures NewEngine and NewPricingServer. Everything else an
// engine reads is a RiskEngine field (BatchSize, Telemetry, Cache) and
// everything a table sweep reads is a TableSpec field (MaxCPUs,
// Strategies).
type Option func(*config)

// WithWorkers sets the live engine's pricing-goroutine count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
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

// RunTableWith executes a table sweep under a context. RunTable(spec) is
// shorthand for RunTableWith(context.Background(), spec).
func RunTableWith(ctx context.Context, spec TableSpec) (*Table, error) {
	return bench.RunTableContext(ctx, spec, nil)
}

// NewEngine returns a live-farm risk engine with the options' worker
// count and transport. Its kernel width is the process default
// (SetKernelThreads).
func NewEngine(opts ...Option) *RiskEngine {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return &risk.Engine{Workers: c.workers, Backend: risk.BackendFor(c.transport)}
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

// NewPricingServer builds and starts a pricing service over
// NewEngine(opts...) with the service's defaults: its own telemetry
// registry (served at /metrics and /metrics.json), the default cache
// size and admission bound, and micro-batches of the engine's batch
// size. Serve its Handler with any http.Server; cmd/riskserver is the
// deployable wrapper that sets each of these by flag.
func NewPricingServer(opts ...Option) *PricingServer {
	return serve.New(serve.Config{Engine: NewEngine(opts...)})
}
