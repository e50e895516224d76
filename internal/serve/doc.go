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
//     duplicate in-flight prices and LRU eviction per shard;
//   - admission control and lifecycle: a bounded request queue that
//     answers 429 + Retry-After on overload instead of collapsing,
//     per-request deadlines via context, /healthz and /metrics
//     endpoints, and a graceful drain that lets in-flight farm batches
//     finish before the process exits.
//
// All serving metrics live under the "serve." prefix in the telemetry
// registry: serve.requests, serve.rejected, serve.request_seconds,
// serve.inflight, serve.cache.{hits,misses,evictions,entries},
// serve.singleflight.shared and serve.batch.{size,flush_size,flush_delay}.
package serve
