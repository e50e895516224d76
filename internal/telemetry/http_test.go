package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHandlerConcurrentWriters hammers the metrics endpoint while
// counters, gauges, histograms and spans mutate from many goroutines.
// Every response must be a complete, valid JSON snapshot — the handler
// must never observe a torn registry. Run it under -race (the telemetry
// package is in the Makefile's race target) to catch unsynchronized
// snapshotting.
func TestHandlerConcurrentWriters(t *testing.T) {
	reg := New()
	h := Handler(reg)

	const (
		writers  = 8
		readers  = 4
		requests = 50
	)
	var stop atomic.Bool

	// Writers: mutate every metric kind, including creating new names on
	// the fly so map growth races against snapshotting.
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			names := [...]string{"alpha", "beta", "gamma"}
			for i := 0; !stop.Load(); i++ {
				name := names[i%len(names)]
				reg.Counter("hits." + name).Add(1)
				reg.Gauge("depth." + name).Set(float64(i % 17))
				reg.Histogram("lat." + name).Observe(float64(i%100) / 1000)
				sp := reg.StartSpan("work." + name)
				sp.End()
				if w == 0 && i%97 == 0 {
					// Occasionally a brand-new name, forcing map inserts.
					reg.Counter(names[i%len(names)] + ".fresh").Add(1)
				}
			}
		}(w)
	}

	// Readers: each of their responses must decode as a full snapshot.
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < requests; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("response %d: status %d", i, rec.Code)
					continue
				}
				var snap Snapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
					t.Errorf("response %d: invalid JSON: %v", i, err)
				}
			}
		}()
	}

	readerWG.Wait()
	stop.Store(true)
	writerWG.Wait()

	// A final request after the dust settles must still be coherent and
	// reflect the writers' activity.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if snap.Counters["hits.alpha"] == 0 {
		t.Fatalf("final snapshot missing writer activity: %+v", snap.Counters)
	}
	if snap.Spans["work.alpha"].Count == 0 {
		t.Fatalf("final snapshot missing span activity: %+v", snap.Spans)
	}
}

// TestMount GETs each of the four observability routes from a mux the
// registry was mounted on: each answers 200 in its own format, and a
// POST to one of them is not served.
func TestMount(t *testing.T) {
	reg := New()
	reg.Counter("demo.count").Add(3)
	mux := http.NewServeMux()
	Mount(mux, reg)
	for route, want := range map[string]string{
		"/metrics":      "text/plain; version=0.0.4",
		"/metrics.json": "application/json",
		"/debug/traces": "text/plain",
		"/debug/events": "application/x-ndjson",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		if got := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || !strings.HasPrefix(got, want) {
			t.Errorf("GET %s: status %d, Content-Type %q; want 200, %s", route, rec.Code, got, want)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", rec.Code)
	}
}

// TestTraceCountIsPerRequest: ?n= sets the tree count of its own request
// only. The handler once stored it into the count it was built with, so
// every later plain request rendered that many trees, and concurrent
// requests wrote the count unsynchronized (run under -race).
func TestTraceCountIsPerRequest(t *testing.T) {
	r := New()
	for i := 0; i < 5; i++ {
		r.StartTrace("serve.request").End()
	}
	t.Run("sequence", func(t *testing.T) {
		h := TraceHandler(r, DefaultTraceCount)
		for _, url := range []string{"/debug/traces", "/debug/traces?n=1", "/debug/traces"} {
			want := "5 trace(s)"
			if strings.HasSuffix(url, "?n=1") {
				want = "1 trace(s)"
			}
			if got := get(h, url); !strings.HasPrefix(got, want) {
				t.Fatalf("GET %s: %q, want %s", url, strings.SplitN(got, "\n", 2)[0], want)
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		h := TraceHandler(r, DefaultTraceCount)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			url, want := "/debug/traces", "5 trace(s)"
			if g%2 == 1 {
				url, want = "/debug/traces?n=2", "2 trace(s)"
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := get(h, url); !strings.HasPrefix(got, want) {
						t.Errorf("GET %s: %q, want %s", url, strings.SplitN(got, "\n", 2)[0], want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
