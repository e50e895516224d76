package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// Handler serves the registry's snapshot as indented JSON, in the
// spirit of expvar's /debug/vars. Wire it wherever convenient:
//
//	http.ListenAndServe(addr, telemetry.Handler(reg))
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding a fresh snapshot never fails; ignore client aborts.
		_ = enc.Encode(r.Snapshot())
	})
}

// Mount registers the standard observability surface of one registry
// on mux, as GET routes:
//
//	/metrics       Prometheus text format (rank-labelled, deterministic)
//	/metrics.json  the JSON snapshot (the former /metrics payload)
//	/debug/traces  slowest reassembled span trees with phase breakdown
//	/debug/events  the flight-recorder event log as filterable NDJSON
func Mount(mux *http.ServeMux, r *Registry) {
	mux.Handle("GET /metrics", PrometheusHandler(r))
	mux.Handle("GET /metrics.json", Handler(r))
	mux.Handle("GET /debug/traces", TraceHandler(r, DefaultTraceCount))
	mux.Handle("GET /debug/events", EventsHandler(r))
}

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/ in
// front of h. The pprof package's side-effect registration targets
// http.DefaultServeMux, which no command serves, so the handlers are
// reachable only through this explicit mount.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// DefaultTraceCount is how many trees /debug/traces renders by default.
const DefaultTraceCount = 16

// fmtDur renders a duration in seconds at a human scale.
func fmtDur(sec float64) string {
	switch abs := sec; {
	case abs >= 1 || abs <= -1:
		return fmt.Sprintf("%.3fs", sec)
	case abs >= 1e-3 || abs <= -1e-3:
		return fmt.Sprintf("%.3fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}

// writeTraceTrees renders the trace's span trees, one per root, each
// level start-ordered. The spans are grouped by parent once, so the
// rendering is linear in the trace.
func writeTraceTrees(w *strings.Builder, tr Trace) {
	children := make(map[uint64][]SpanRecord)
	for _, s := range tr.Spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var write func(rec SpanRecord, depth int)
	write = func(rec SpanRecord, depth int) {
		fmt.Fprintf(w, "  %s%-*s %10s\n", strings.Repeat("  ", depth),
			40-2*depth, rec.Name, fmtDur(rec.End-rec.Start))
		for _, child := range children[rec.ID] {
			write(child, depth+1)
		}
	}
	for _, root := range tr.Roots() {
		write(root, 0)
	}
}

// writeTraceHeader writes a trace's one-line summary; an overflowed
// trace says how many spans it turned away, so a tree with missing
// subtrees is not mistaken for the whole request.
func writeTraceHeader(w *strings.Builder, tr Trace) {
	fmt.Fprintf(w, "trace %016x  %s  %d span(s)", tr.TraceID, fmtDur(tr.Duration()), len(tr.Spans))
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "  %d spans dropped", tr.Dropped)
	}
	w.WriteString("\n")
}

// RenderTraces formats the slowest n reassembled traces as text: one
// indented tree per trace plus a per-phase (span name) duration
// breakdown, master- and worker-side spans interleaved by parent links.
func RenderTraces(r *Registry, n int) string {
	traces := r.SlowestTraces(n)
	var b strings.Builder
	fmt.Fprintf(&b, "%d trace(s) retained, slowest first\n", len(traces))
	for _, tr := range traces {
		b.WriteString("\n")
		writeTraceHeader(&b, tr)
		// Phase breakdown: total duration and count per span name.
		type phase struct {
			total float64
			count int
		}
		phases := map[string]*phase{}
		for _, s := range tr.Spans {
			p := phases[s.Name]
			if p == nil {
				p = &phase{}
				phases[s.Name] = p
			}
			p.total += s.End - s.Start
			p.count++
		}
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool { return phases[names[a]].total > phases[names[b]].total })
		b.WriteString("  phases:")
		for _, name := range names {
			p := phases[name]
			fmt.Fprintf(&b, " %s %s (%d)", name, fmtDur(p.total), p.count)
		}
		b.WriteString("\n")
		writeTraceTrees(&b, tr)
	}
	return b.String()
}

// TraceHandler serves the slowest-n reassembled trace trees as plain
// text — the /debug/traces endpoint. `?trace=<16-hex-digit ID>` renders
// just that trace (the ID format /debug/events links with), and `?n=`
// overrides the tree count for that request.
func TraceHandler(r *Registry, defaultN int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		n := defaultN
		if s := q.Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad count %q", s), http.StatusBadRequest)
				return
			}
			n = v
		}
		if s := q.Get("trace"); s != "" {
			id, err := strconv.ParseUint(s, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, fmt.Sprintf("bad trace ID %q: want 16 hex digits", s), http.StatusBadRequest)
				return
			}
			tr, ok := r.Trace(id)
			if !ok {
				http.Error(w, fmt.Sprintf("trace %016x not retained", id), http.StatusNotFound)
				return
			}
			var b strings.Builder
			writeTraceHeader(&b, tr)
			writeTraceTrees(&b, tr)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = io.WriteString(w, b.String())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, RenderTraces(r, n))
	})
}
