// Package serve turns the benchmark's pricing engine into a long-lived
// production service: an HTTP/JSON front end that keeps the parallel
// kernel saturated, the step the paper's one-shot batch runs stop short
// of.
//
// Three mechanisms sit between the socket and the farm:
//
//   - a dynamic micro-batcher that coalesces concurrent requests — a
//     lone /price problem, or the whole group of problems a /batch book
//     leads — into farm rounds (flush on max batch size or max delay —
//     the same bunching lever as the farm's BatchSize), so point lookups
//     ride the Robin-Hood hot path together with portfolio sweeps, on
//     one standing farm session that New's engine opens with its first
//     round and Drain closes;
//   - a sharded, content-addressed result cache keyed by
//     premia.Problem.ContentKey, with singleflight suppression of
//     duplicate in-flight prices and LRU eviction per shard. It is the
//     only cache a price goes through: the engine behind the batcher
//     prices what it is handed, so a problem is hashed once;
//   - admission control and lifecycle: a bounded request queue that
//     answers 429 + Retry-After on overload instead of collapsing,
//     per-request deadlines via context, /healthz and /metrics
//     endpoints, and a graceful drain that lets in-flight farm batches
//     finish before the process exits.
//
// Every POST body is read whole, at most maxBodyBytes of it: a longer
// one is a 413, refused before a byte is read when its Content-Length
// says so. A /price or /batch body is scanned in one pass straight into
// premia.Problems,
// the way the paper's "serialized load" skips the object a full load
// builds first. The scanner takes the canonical shape — the six problem
// keys spelled exactly, plain ASCII strings, numbers as JSON spells them —
// and keeps one copy of each name a body repeats, so a book's common keys
// cost one allocation, not one a problem. Any body it does not take, it
// hands unchanged to encoding/json and problemJSON.toProblem, so every
// body is accepted or refused exactly as encoding/json alone would;
// FuzzDecodeProblems holds the two to the same problems. encoding/json
// counts a book into elements of no size before it builds one, so a book
// past maxBatchRequest (a /risk inline book past maxRiskClaims) is refused
// without its problems built, and a problem's parameters before their
// map, so one past maxProblemParams is refused without it built.
//
// A request roots one trace: /batch, /risk/report and each /risk/watch
// round through Server.trace (telemetry's Start, or no span under
// DisableTracing), a lone /price problem in priceLeaders.
//
// All serving metrics live under the "serve." prefix in the telemetry
// registry: serve.requests, serve.rejected, serve.request_seconds,
// serve.inflight, serve.cache.{hits,misses,evictions,entries},
// serve.singleflight.shared and serve.batch.{size,flush_size,flush_delay}.
package serve
