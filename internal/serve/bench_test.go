package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"riskbench/internal/risk"
)

// BenchmarkLonePriceClients is the evidence the frozen harness cannot
// give about the batcher's flush rule: a closed loop of c clients, each
// posting distinct (never cached) lone /price requests through the
// handler, one farm worker, in process and over the unix transport,
// reported as priced/s. c = 1 is the lone request that finds the farm
// free; from c = 16 up the flushes fill with whatever arrived while the
// last one was pricing. Per-layer evidence, not a ledger claim — and the
// table (EXPERIMENTS.md) a "cap the drain" or "concurrent flushes"
// proposal has to beat.
//
//	go test -run '^$' -bench BenchmarkLonePriceClients -benchtime 2s ./internal/serve
func BenchmarkLonePriceClients(b *testing.B) {
	backends := []struct {
		name    string
		backend risk.FarmBackend
	}{
		{"local", nil}, // the engine's default, farm.Local
		{"unix", &risk.NetBackend{Transport: "unix", Spawn: risk.GoNetWorkers(nil, 0)}},
	}
	for _, be := range backends {
		for _, clients := range []int{1, 4, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/c=%d", be.name, clients), func(b *testing.B) {
				s := New(Config{Engine: &risk.Engine{Workers: 1, BatchSize: 16, Backend: be.backend}})
				defer s.Close()
				post := func(i int64) {
					k := 50 + float64(i)/1000 // a distinct strike: never a cache hit
					if w := postJSON(s, "/price", cfBody(k)); w.Code != http.StatusOK {
						b.Errorf("status %d: %s", w.Code, w.Body.String())
					}
				}
				post(-1) // the first round opens the session
				var left atomic.Int64
				left.Store(int64(b.N))
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := left.Add(-1); i >= 0; i = left.Add(-1) {
							post(i)
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "priced/s")
			})
		}
	}
}

// bookBody is a /batch body of n closed-form calls spelled as the
// benchmark's book_batch spells them (encoding/json of a problem with its
// params in sorted order), with strikes k, k+1e-6, k+2e-6, ….
func bookBody(n int, k float64) []byte {
	b := []byte(`{"problems":[`)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"asset":"equity","model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"K":`...)
		b = strconv.AppendFloat(b, k+float64(i)*1e-6, 'f', -1, 64)
		b = append(b, `,"S0":100,"T":1.5,"divid":0.01,"r":0.045,"sigma":0.22}}`...)
	}
	return append(b, "]}"...)
}

// BenchmarkBatchHandler is book_batch's operation in process: a 256-problem
// closed-form /batch, never a cache hit, through Server.Handler on one
// farm worker, reported as priced/s — the serve layer's share of the
// workload without the harness, its socket or its client.
//
//	go test -run '^$' -bench BenchmarkBatchHandler -benchmem ./internal/serve
func BenchmarkBatchHandler(b *testing.B) {
	const problems = 256
	s := New(Config{Engine: &risk.Engine{Workers: 1}})
	defer s.Close()
	k := 60.0
	post := func() {
		b.StopTimer()
		body := bookBody(problems, k)
		k += problems * 1e-6
		r := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		b.StartTimer()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	post() // the first round opens the session
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		post()
	}
	b.ReportMetric(float64(b.N*problems)/b.Elapsed().Seconds(), "priced/s")
}
