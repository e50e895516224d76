// Package telemetry is a zero-dependency metrics and tracing layer for
// the benchmark's hot paths: atomic counters and gauges, lock-free
// log-bucketed histograms with quantile estimation, and lightweight
// spans with parent/child links.
//
// Everything hangs off a *Registry. A nil *Registry is a valid no-op
// sink, so instrumented code can hold one unconditionally:
//
//	reg.Counter("farm.tasks").Add(1)   // safe even when reg == nil
//
// A layer opens its span with Start, the one rule of trace propagation:
// adopt the trace its context carries, else root one or run untraced.
//
// Registries default to a wall clock but accept any monotone
// seconds-valued clock via SetClock, which is how the discrete-event
// cluster simulator records virtual durations instead of wall time.
//
// Snapshot freezes every metric into a plain, JSON-serializable value;
// Handler exposes that snapshot over HTTP in the style of expvar.
package telemetry
