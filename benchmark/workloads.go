package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	varisk "riskbench/internal/var"
)

// workload is one traffic shape of the end-to-end grid. Its inputs are
// made from the seed alone; the server sees only request bodies.
type workload struct {
	name string
	why  string
	// rate > 0 makes the measured phase an open loop at that many
	// operations a second; 0 a closed loop.
	rate  float64
	conns int
	// warmup is the fixed number of operations sent before measuring. It
	// is a count, never a duration, so a slow box warms up as much as a
	// fast one and setup_s measures the same work everywhere.
	warmup int
	// priced is how many problems one operation prices or reprices.
	priced int
	// pool bounds how many distinct request bodies are rendered; an
	// operation past the pool reuses body i%pool (0 = one per operation,
	// which only a fixed-count open loop can promise).
	pool int
	// build makes the inputs for n operations (or the pool).
	build func(seed uint64, n int) (*inputs, error)
}

// inputs are a workload's pre-rendered requests plus what the output
// checks need to recompute the answers in process.
type inputs struct {
	requests [][]byte
	// problems[i] are request i's pricing problems, kept only where a
	// check will look (see checkedOp).
	problems map[int][]*premia.Problem
	// book and scenario seeds of the /risk/report requests.
	book      *portfolio.Portfolio
	scenarios int
	seeds     []uint64
}

// checkEvery is the stride of the price check: the response of every
// 64th operation is compared, bit for bit, with premia's own answer.
const checkEvery = 64

func checkedOp(i int) bool { return i%checkEvery == 0 }

// problemJSON is the wire form of a pricing problem (serve's, restated:
// that type is unexported and the benchmark speaks to the server only
// over the socket).
type problemJSON struct {
	Asset  string             `json:"asset,omitempty"`
	Model  string             `json:"model"`
	Option string             `json:"option"`
	Method string             `json:"method"`
	Params map[string]float64 `json:"params"`
}

func toJSON(p *premia.Problem) problemJSON {
	return problemJSON{Asset: p.Asset, Model: p.Model, Option: p.Option, Method: p.Method, Params: p.Params}
}

// closedFormCall is one Black–Scholes call with a strike and maturity
// drawn from rng. Fifty-three random bits per draw mean no two problems
// of a run share a content key, so the server's result cache never
// hits.
func closedFormCall(rng *rand.Rand) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("K", 60+80*rng.Float64()).Set("T", 0.25+4.75*rng.Float64())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own plain structs always marshal
	}
	return b
}

func buildPoints(seed uint64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &inputs{requests: make([][]byte, n), problems: map[int][]*premia.Problem{}}
	for i := range in.requests {
		p := closedFormCall(rng)
		in.requests[i] = wireRequest("/price", mustJSON(toJSON(p)))
		if checkedOp(i) {
			in.problems[i] = []*premia.Problem{p}
		}
	}
	return in, nil
}

// bookSize is the number of problems in one book_batch request: sixteen
// micro-batches of sixteen.
const bookSize = 256

func buildBooks(seed uint64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &inputs{requests: make([][]byte, n), problems: map[int][]*premia.Problem{}}
	for i := range in.requests {
		ps := make([]*premia.Problem, bookSize)
		js := make([]problemJSON, bookSize)
		for j := range ps {
			ps[j] = closedFormCall(rng)
			js[j] = toJSON(ps[j])
		}
		in.requests[i] = wireRequest("/batch", mustJSON(map[string]any{"problems": js}))
		if checkedOp(i) {
			in.problems[i] = ps
		}
	}
	return in, nil
}

// riskRequest is the wire form of POST /risk/report, as far as the
// benchmark uses it.
type riskRequest struct {
	Portfolio struct {
		Name     string        `json:"name,omitempty"`
		N        int           `json:"n,omitempty"`
		Problems []problemJSON `json:"problems,omitempty"`
	} `json:"portfolio"`
	Scenarios struct {
		Mode string `json:"mode"`
		N    int    `json:"n"`
		Seed uint64 `json:"seed"`
	} `json:"scenarios"`
	Method string `json:"method"`
}

// realBookStride samples the realistic portfolio: every 244th of its
// 7931 claims is 33 claims covering all six product classes, the two
// Longstaff–Schwartz baskets included — they are the tail of the cost
// spectrum, and a sample without them would not be the paper's book.
const realBookStride = 244

// realBook is the var_real position book: the strided sample of the
// paper's realistic portfolio at numerical effort ×10⁻³.
func realBook() (*portfolio.Portfolio, error) {
	full := portfolio.Realistic()
	if err := full.ScaleEffort(1e-3); err != nil {
		return nil, err
	}
	pf := &portfolio.Portfolio{Name: "realistic-sample"}
	for i := 0; i < len(full.Items); i += realBookStride {
		pf.Items = append(pf.Items, full.Items[i])
	}
	return pf, nil
}

const (
	realScenarios = 5
	toyClaims     = 250
	toyScenarios  = 24
)

// buildReports renders n full-revaluation report requests over book;
// request i draws its scenarios from seed+i. inline sends the book as
// problems, otherwise by generator name.
func buildReports(book *portfolio.Portfolio, inline bool, scenarios int, seed uint64, n int) *inputs {
	in := &inputs{requests: make([][]byte, n), book: book, scenarios: scenarios, seeds: make([]uint64, n)}
	var q riskRequest
	if inline {
		for _, it := range book.Items {
			q.Portfolio.Problems = append(q.Portfolio.Problems, toJSON(it.Problem))
		}
	} else {
		q.Portfolio.Name, q.Portfolio.N = book.Name, len(book.Items)
	}
	q.Scenarios.Mode, q.Scenarios.N, q.Method = "mc", scenarios, "full"
	for i := range in.requests {
		in.seeds[i] = seed + uint64(i) + 1 // the server reads seed 0 as "default"
		q.Scenarios.Seed = in.seeds[i]
		in.requests[i] = wireRequest("/risk/report", mustJSON(q))
	}
	return in
}

func buildRealReports(seed uint64, n int) (*inputs, error) {
	book, err := realBook()
	if err != nil {
		return nil, err
	}
	return buildReports(book, true, realScenarios, seed, n), nil
}

func buildToyReports(seed uint64, n int) (*inputs, error) {
	return buildReports(portfolio.Toy(toyClaims), false, toyScenarios, seed, n), nil
}

// pointRate is point_stream's offered load in requests a second.
const pointRate = 250

// workloads is the end-to-end grid's row set. BENCHMARK.json restates
// the names and reasons; a test keeps the two in step.
var workloads = []workload{
	{
		name: "point_stream",
		why:  "open loop of lone closed-form /price requests: batcher delay and per-round farm set-up dominate, kernel work must not show",
		rate: pointRate, conns: 2, warmup: 200, priced: 1,
		build: buildPoints,
	},
	{
		name:  "book_batch",
		why:   "closed loop of 256-problem /batch requests: the same serve-risk-farm path saturated, 16 farm rounds per request",
		conns: 1, warmup: 60, priced: bookSize, pool: 64,
		build: buildBooks,
	},
	{
		name:  "var_real",
		why:   "full-revaluation VaR over a 33-claim sample of the paper's realistic book: compute-bound, premia kernels dominate",
		conns: 1, warmup: 3, priced: 33 * (realScenarios + 1), pool: 512,
		build: buildRealReports,
	},
	{
		name:  "var_toy",
		why:   "full-revaluation VaR over the paper's toy book: one giant farm round of microsecond tasks, per-task dispatch dominates",
		conns: 1, warmup: 3, priced: toyClaims * (toyScenarios + 1), pool: 128,
		build: buildToyReports,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// priceResult is the part of serve's result JSON the checks read.
type priceResult struct {
	Price  float64 `json:"price"`
	Cached bool    `json:"cached"`
	Error  string  `json:"error"`
}

// checkPrices compares a retained /price or /batch response with
// premia's own answers for the same problems. Go's JSON float encoding
// round-trips, so equality is on the bits.
func checkPrices(body []byte, problems []*premia.Problem) error {
	// A /price response is one result, a /batch response a list of them.
	var reply struct {
		priceResult
		Results []priceResult `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	got := reply.Results
	if got == nil {
		got = []priceResult{reply.priceResult}
	}
	if len(got) != len(problems) {
		return fmt.Errorf("%d results for %d problems", len(got), len(problems))
	}
	for j, p := range problems {
		want, err := p.Compute()
		if err != nil {
			return err
		}
		switch {
		case got[j].Error != "":
			return fmt.Errorf("problem %d: server error %q", j, got[j].Error)
		case got[j].Cached:
			return fmt.Errorf("problem %d: answered from the cache, the workload must always miss", j)
		case got[j].Price != want.Price:
			return fmt.Errorf("problem %d: price %v, premia says %v", j, got[j].Price, want.Price)
		}
	}
	return nil
}

// checkReport compares a retained /risk/report response with an
// in-process full revaluation of the same book under the same scenario
// seed.
func checkReport(ctx context.Context, body []byte, in *inputs, i int) error {
	var got struct {
		BaseValue float64 `json:"base_value"`
		Estimates []struct {
			VaR  float64 `json:"var"`
			CVaR float64 `json:"cvar"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	market := varisk.DefaultMarket()
	scens, err := market.GenerateParallel(ctx, in.scenarios, in.seeds[i], 1)
	if err != nil {
		return err
	}
	want, err := varisk.FullReval(ctx, risk.Engine{Workers: serverWorkers()}, in.book, scens,
		varisk.Config{HorizonDays: market.HorizonDays})
	if err != nil {
		return err
	}
	if len(got.Estimates) != 1 || len(want.Estimates) != 1 {
		return fmt.Errorf("want one estimate, server sent %d", len(got.Estimates))
	}
	g, w := got.Estimates[0], want.Estimates[0]
	if got.BaseValue != want.BaseValue || g.VaR != w.VaR || g.CVaR != w.CVaR {
		return fmt.Errorf("report (base %v, VaR %v, CVaR %v), in-process revaluation says (%v, %v, %v)",
			got.BaseValue, g.VaR, g.CVaR, want.BaseValue, w.VaR, w.CVaR)
	}
	return nil
}
