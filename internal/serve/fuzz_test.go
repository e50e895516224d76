package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
)

// The three requests that used to end the process: a parameter that sizes
// memory had no upper bound, so one 190-byte body bought a 128 TB
// Cholesky factor (dim), an 80 TB tree level (steps) or an 80 TB row of
// normals (mcsteps) — an out-of-memory fault no recover catches.
var hostileParameterBodies = map[string]string{
	"dim": `{"model":"BlackScholesNdim","option":"PutBasketEuro","method":"MC_Basket",
		"params":{"S0":100,"r":0.05,"sigma":0.2,"rho":0.3,"K":100,"T":1,"dim":4000000,"paths":2}}`,
	"steps": `{"model":"BlackScholes1dim","option":"CallEuro","method":"TR_CRR",
		"params":{"S0":100,"r":0.05,"sigma":0.2,"K":100,"T":1,"steps":1e13}}`,
	"mcsteps": `{"model":"LocalVol1dim","option":"CallEuro","method":"MC_LocalVol",
		"params":{"S0":100,"r":0.05,"sigma0":0.2,"K":100,"T":1,"paths":2,"mcsteps":1e13}}`,
}

// Market overrides the scenario generator used to take at their word: a
// negative volatility read as "factor off" (an eighth of the default
// calibration's VaR, inside a 200), and a volatility or horizon so large
// that every shocked spot rounded to zero — a late 400 blaming S0 on some
// task under full revaluation, a meaningless 200 under delta–gamma. Each
// is keyed by the MarketModel field its 400 must name.
var badMarketBodies = map[string][]string{
	"SpotVol":     {`{"scenarios":{"spot_vol":-1}}`, `{"scenarios":{"spot_vol":50}}`, `{"scenarios":{"spot_vol":1e308}}`},
	"VolVol":      {`{"scenarios":{"vol_vol":-3}}`, `{"scenarios":{"vol_vol":16}}`},
	"RateVol":     {`{"scenarios":{"rate_vol":-0.01}}`, `{"scenarios":{"mode":"grid","rate_vol":-0.01}}`},
	"RhoSV":       {`{"scenarios":{"rho_sv":7}}`, `{"scenarios":{"rho_sv":-1.5}}`},
	"HorizonDays": {`{"scenarios":{"horizon_days":1e300}}`, `{"scenarios":{"horizon_days":-10}}`},
}

// onSmallBook makes a scenarios-only /risk body a request for the given
// method over a four-claim toy book.
func onSmallBook(body, method string) string {
	return strings.Replace(body, `{`, `{"method":"`+method+`","portfolio":{"n":4},`, 1)
}

// TestHostileParametersAre400: each of them is now an ordinary client
// mistake naming the parameter, on the real engine, alone, in a batch
// slot and in an inline risk book.
func TestHostileParametersAre400(t *testing.T) {
	s := riskServer()
	defer s.Close()
	for param, body := range hostileParameterBodies {
		want := fmt.Sprintf(`parameter \"%s\" = `, param)
		if w := postJSON(s, "/price", body); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("/price %s: status %d body %s, want 400 naming the parameter", param, w.Code, w.Body)
		}
		if w := postJSON(s, "/batch", batchBody(cfBody(100), body)); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), want) || !strings.Contains(w.Body.String(), `"price"`) {
			t.Errorf("/batch %s: status %d body %s, want 200 with one price and one error naming the parameter", param, w.Code, w.Body)
		}
		book := `{"portfolio":{"problems":[` + body + `]},"scenarios":{"mode":"stress"}}`
		if w := postJSON(s, "/risk/report", book); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("/risk/report %s: status %d body %s, want 400 naming the parameter", param, w.Code, w.Body)
		}
	}
}

// unitBackend prices every task at 1 without computing anything.
type unitBackend struct{}

func (unitBackend) Run(ctx context.Context, tasks []farm.Task, _ farm.Options, _ int) ([]farm.Result, error) {
	out := make([]farm.Result, len(tasks))
	for i, t := range tasks {
		out[i] = farm.Result{Name: t.Name, Value: &farm.Priced{Name: t.Name, Result: premia.Result{Price: 1, Work: 1}}}
	}
	return out, ctx.Err()
}

// serveBodySeeds are the request bodies the serve fuzz targets start
// from: every body a test sends, and what no test had sent.
func serveBodySeeds() [][]byte {
	var seeds [][]byte
	for _, body := range hostileParameterBodies {
		seeds = append(seeds, []byte(body), []byte(batchBody(body)), []byte(`{"portfolio":{"problems":[`+body+`]}}`))
	}
	for _, bodies := range badMarketBodies {
		for _, body := range bodies {
			seeds = append(seeds, []byte(body), []byte(onSmallBook(body, "full")))
		}
	}
	for _, body := range []string{
		// server_test.go and risk_test.go
		cfBody(100),
		batchBody(cfBody(90), cfBody(91), cfBody(90)),
		`{not json`,
		`{"model":"x","option":"y","method":"z"}`,
		batchBody(),
		`{"portfolio":{"name":"toy","n":16},"scenarios":{"mode":"mc","n":128,"seed":7},"alphas":[0.95,0.99]}`,
		`{"portfolio":{"name":"toy","n":8},"scenarios":{"mode":"grid"},"method":"full","alphas":[0.9]}`,
		`{"portfolio":{"name":"toy","n":8},"scenarios":{"mode":"mc","n":64,"seed":3},"alphas":[0.99],"limits":{"var":1e-9},"rounds":3}`,
		`{"portfolio":{"name":"toy","n":4},"scenarios":{"n":32},"rounds":2}`,
		`{"portfolio":{"name":"nope"}}`,
		`{"method":"quantum"}`,
		`{"scenarios":{"mode":"astrology"}}`,
		`{"portfolio":{"name":"toy","n":4096},"scenarios":{"n":4096},"method":"full"}`,
		`{"scenarios":{"n":100000}}`,
		`{"portfolio":{"n":100000}}`,
		`{"alphas":[1.5]}`,
		`{"alphas":[0.95,1]}`,
		`{"scenarios":{"mode":"grid"},"scale_days":10}`,
		`{"portfolio":{"n":4},"scenarios":{"mode":"stress"},"scale_days":5}`,
		// and what no test had sent
		`{"params":{"S0":1e400}}`,
		strings.Repeat("[", 10000),
		`{"model":"BlackScholes1dim","model":"x","params":{"K":1,"K":2},"params":{}}`,
		`{"portfolio":{"n":-1},"scenarios":{"n":-1}}`,
		`{"alphas":[2]}`,
		`{"rounds":1000,"interval_ms":60000,"portfolio":{"n":1},"scenarios":{"n":1}}`,
		`{"scenarios":{"spot_vol":1e308,"vol_vol":-1e308,"rho_sv":7,"horizon_days":1e-300},"scale_days":1e308}`,
		`{"scenarios":{"horizon_days":0.1},"scale_days":1e308}`, // this target's first find
		`null`, `[]`, `0`, `""`, ``,
	} {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

// FuzzServeBodies: whatever bytes arrive as the body of a pricing or risk
// request, the server never panics, never answers a body that fails
// decoding or validation with a 5xx, and always answers JSON (NDJSON for
// a watch stream). Prices come from stubs — Config.Price for the
// micro-batcher, a unit backend under the /risk engine — so an input that
// happens to be a valid heavy problem costs nothing; everything in front
// of the kernels, the production /risk caps included, is the real thing.
func FuzzServeBodies(f *testing.F) {
	for _, body := range serveBodySeeds() {
		f.Add(body)
	}

	const timeout = 300 * time.Millisecond
	s := New(Config{
		Price: func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
			out := make([]risk.PriceOutcome, len(problems))
			for i := range out {
				out[i].Result = premia.Result{Price: 1, Work: 1}
			}
			return out, nil
		},
		Engine:         &risk.Engine{Backend: unitBackend{}},
		MaxDelay:       50 * time.Microsecond,
		RequestTimeout: timeout,
	})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		// A full revaluation builds its claims × scenarios problems before
		// the backend is asked for anything, and the largest one the caps
		// admit takes the instrumented fuzz worker minutes. Those are
		// valid requests, not what this target hunts; it stays under 2^14.
		var q riskReportRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&q) == nil && q.Method == "full" {
			claims, scens := max(q.Portfolio.N, len(q.Portfolio.Problems)), q.Scenarios.N
			if claims <= 0 {
				claims = 100
			}
			if scens <= 0 {
				scens = 256
			}
			if claims*scens > 1<<14 {
				t.Skip("a full revaluation too big to fuzz")
			}
		}
		for _, path := range []string{"/price", "/batch", "/risk/report", "/risk/watch"} {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
			w := httptest.NewRecorder()
			start := time.Now()
			s.Handler().ServeHTTP(w, req)
			ran := time.Since(start)
			cancel()
			switch {
			case w.Code == http.StatusOK || w.Code == http.StatusBadRequest:
			case w.Code == http.StatusGatewayTimeout && ran >= timeout:
				// a valid request too big for this test's deadline
			default:
				t.Fatalf("POST %s answered %d after %v: %s", path, w.Code, ran, w.Body)
			}
			lines := [][]byte{w.Body.Bytes()}
			if strings.Contains(w.Header().Get("Content-Type"), "ndjson") {
				lines = bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
			}
			for _, line := range lines {
				if !json.Valid(line) {
					t.Fatalf("POST %s answered %d with a body that is not JSON: %q", path, w.Code, w.Body)
				}
			}
		}
	})
}
