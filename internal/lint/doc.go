// Package lint is the project's static analysis suite: a set of
// analyzers that machine-check the invariants the benchmark's
// verifiability story rests on, built entirely on the standard
// library's go/ast, go/parser and go/types (no third-party analysis
// framework).
//
// The repo's correctness claims — bit-identical prices at any thread
// count, virtual-clock telemetry that simulates a 512-core cluster on a
// laptop, traces that survive process hops, a wire format that never
// changes shape without a version bump — are structural properties of
// the source, not runtime behaviors a unit test can pin. Each analyzer
// here turns one of those hand-enforced review rules into a positioned
// compile-time diagnostic:
//
//	detrand      pricing/kernel code must draw randomness from the
//	             split mathutil streams, never global math/rand
//	maporder     no float/string reduction or wire-bound append may
//	             depend on map iteration order
//	wallclock    telemetry, farm, mpi, serve and portfolio production
//	             code read time only through the telemetry clock
//	ctxflow      exported blocking/goroutine-spawning functions in
//	             farm, risk and serve accept and propagate a Context
//	wireshape    wire-contract struct shapes are pinned by golden
//	             hashes in wireshape.lock; changing one without a
//	             protocol version bump fails the build
//	metricnames  metric and span name literals follow the dotted
//	             pkg.noun.verb grammar the Prometheus rank-folding
//	             exporter parses
//	testonly     every declaration under internal/ is used, and every
//	             exported field of its structs set, by some non-test
//	             file of the module
//
// Deliberate exceptions are annotated in the source, never silently
// skipped:
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above suppresses that analyzer's
// diagnostics there. Directives are themselves checked: an unknown
// analyzer name, a missing reason, or a directive that suppresses
// nothing is an error, so stale exemptions cannot accrete.
//
// cmd/riskvet is the command-line driver; `make lint` runs it over the
// whole module and is part of `make check`.
package lint
