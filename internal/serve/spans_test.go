package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
	varisk "riskbench/internal/var"
)

// The span goldens below were recorded before every layer opened its
// span through telemetry's Start: which layer adopts its caller's trace,
// which roots one and which runs untraced is pinned across that change
// and every later one.

// spanShape renders what reg recorded: every retained trace as its
// distinct parent > span edges with their counts ("-" for the root, "?"
// for a parent the trace does not hold), the trees sorted, then every
// span name that finished outside any trace with its count.
func spanShape(reg *telemetry.Registry) string {
	traced := map[string]int64{}
	var trees []string
	for _, tr := range reg.SlowestTraces(0) {
		names := map[uint64]string{}
		for _, s := range tr.Spans {
			names[s.ID] = s.Name
		}
		edges := map[string]int{}
		for _, s := range tr.Spans {
			parent, ok := names[s.ParentID]
			switch {
			case s.ParentID == 0:
				parent = "-"
			case !ok:
				parent = "?"
			}
			edges[parent+" > "+s.Name]++
			traced[s.Name]++
		}
		lines := make([]string, 0, len(edges))
		for e, n := range edges {
			lines = append(lines, fmt.Sprintf("  %s ×%d\n", e, n))
		}
		sort.Strings(lines)
		trees = append(trees, "trace\n"+strings.Join(lines, ""))
	}
	sort.Strings(trees)
	var untraced []string
	for name, st := range reg.Snapshot().Spans {
		if n := st.Count - traced[name]; n > 0 {
			untraced = append(untraced, fmt.Sprintf("  %s ×%d\n", name, n))
		}
	}
	sort.Strings(untraced)
	return strings.Join(trees, "") + "untraced\n" + strings.Join(untraced, "")
}

// TestServeSpanTrees: each endpoint's requests leave the span trees they
// left before, with tracing on and with tracing off.
func TestServeSpanTrees(t *testing.T) {
	for _, c := range []struct{ name, path, body string }{
		{"price", "/price", cfBody(100)},
		{"batch", "/batch", batchBody(cfBody(90), cfBody(100), cfBody(110))},
		{"report full", "/risk/report", `{"portfolio":{"name":"toy","n":4},"scenarios":{"mode":"mc","n":8,"seed":7},"method":"full"}`},
		{"report deltagamma", "/risk/report", `{"portfolio":{"name":"toy","n":4},"scenarios":{"mode":"mc","n":8,"seed":7}}`},
		{"watch", "/risk/watch", `{"portfolio":{"name":"toy","n":4},"scenarios":{"mode":"mc","n":8,"seed":7},"rounds":1}`},
	} {
		for _, off := range []bool{false, true} {
			name := c.name
			if off {
				name += ", tracing off"
			}
			reg := telemetry.New()
			s := New(Config{Engine: &risk.Engine{Workers: 2}, MaxDelay: time.Millisecond, Telemetry: reg, DisableTracing: off})
			w := postJSON(s, c.path, c.body)
			s.Close()
			if w.Code != 200 {
				t.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
			}
			if got := spanShape(reg); got != serveSpanGoldens[name] {
				t.Errorf("%s: span trees\n%s\nwant\n%s", name, got, serveSpanGoldens[name])
			}
		}
	}
}

// TestEngineSpanTrees: the engine's entry points leave the span trees
// they left before under no trace, under a caller's trace, and with a nil
// registry (which records nothing, into the caller's registry or
// anywhere).
func TestEngineSpanTrees(t *testing.T) {
	pf := portfolio.Toy(4)
	scens := risk.StressScenarios()[:2]
	problems := make([]*premia.Problem, 3)
	for i := range problems {
		problems[i] = premia.New().SetModel("BlackScholes1dim").SetOption("CallEuro").SetMethod("CF_Call").
			Set("S0", 100).Set("sigma", 0.2).Set("r", 0.04).Set("T", 1).Set("K", float64(90+10*i))
	}
	entries := []struct {
		name string
		call func(ctx context.Context, eng risk.Engine) error
	}{
		{"PriceBatch", func(ctx context.Context, eng risk.Engine) error {
			_, err := eng.PriceBatch(ctx, problems)
			return err
		}},
		{"RevalueContext", func(ctx context.Context, eng risk.Engine) error {
			_, err := eng.RevalueContext(ctx, pf, scens)
			return err
		}},
		{"FullReval", func(ctx context.Context, eng risk.Engine) error {
			_, err := varisk.FullReval(ctx, eng, pf, scens, varisk.Config{})
			return err
		}},
		{"CollectSensitivities", func(ctx context.Context, eng risk.Engine) error {
			_, err := varisk.CollectSensitivities(ctx, eng, pf)
			return err
		}},
	}
	for _, e := range entries {
		for _, under := range []string{"no trace", "caller's trace", "nil registry"} {
			name := e.name + ", " + under
			reg := telemetry.New()
			eng := risk.Engine{Workers: 2, Telemetry: reg}
			ctx := context.Background()
			var caller *telemetry.Span
			if under != "no trace" {
				caller = reg.StartTrace("test.caller")
				ctx = telemetry.ContextWithTrace(ctx, caller.Context())
			}
			if under == "nil registry" {
				eng.Telemetry = nil
			}
			if err := e.call(ctx, eng); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			caller.End()
			if got := spanShape(reg); got != engineSpanGoldens[name] {
				t.Errorf("%s: span trees\n%s\nwant\n%s", name, got, engineSpanGoldens[name])
			}
		}
	}
}

// serveSpanGoldens: with tracing off, a /risk request still leaves the
// trace its estimator roots.
var serveSpanGoldens = map[string]string{
	"batch": `trace
  - > serve.request ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×3
  farm.task > farm.compute ×3
  farm.task > farm.fetch ×1
  risk.price_batch > farm.run ×1
  serve.request > risk.price_batch ×1
  serve.request > serve.queue ×1
untraced
`,
	"batch, tracing off": `untraced
  farm.compute ×3
  farm.dispatch ×1
  farm.run ×1
  farm.task ×3
  risk.price_batch ×1
`,
	"price": `trace
  - > serve.request ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×1
  farm.task > farm.compute ×1
  farm.task > farm.fetch ×1
  risk.price_batch > farm.run ×1
  serve.request > risk.price_batch ×1
  serve.request > serve.queue ×1
untraced
`,
	"price, tracing off": `untraced
  farm.compute ×1
  farm.dispatch ×1
  farm.run ×1
  farm.task ×1
  risk.price_batch ×1
`,
	"report deltagamma": `trace
  - > serve.risk.report ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  serve.risk.report > var.sensitivities ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
	"report deltagamma, tracing off": `trace
  - > var.sensitivities ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
	"report full": `trace
  - > serve.risk.report ×1
  farm.run > farm.dispatch ×2
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×2
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  serve.risk.report > var.full ×1
  var.full > risk.revalue ×1
untraced
`,
	"report full, tracing off": `trace
  - > var.full ×1
  farm.run > farm.dispatch ×2
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×2
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  var.full > risk.revalue ×1
untraced
`,
	"watch": `trace
  - > serve.risk.watch_round ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  serve.risk.watch_round > var.sensitivities ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
	"watch, tracing off": `trace
  - > var.sensitivities ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
}

var engineSpanGoldens = map[string]string{
	"CollectSensitivities, caller's trace": `trace
  - > test.caller ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  test.caller > var.sensitivities ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
	"CollectSensitivities, nil registry": `trace
  - > test.caller ×1
untraced
`,
	"CollectSensitivities, no trace": `trace
  - > var.sensitivities ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  var.sensitivities > risk.revalue ×1
untraced
`,
	"FullReval, caller's trace": `trace
  - > test.caller ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  test.caller > var.full ×1
  var.full > risk.revalue ×1
untraced
`,
	"FullReval, nil registry": `trace
  - > test.caller ×1
untraced
`,
	"FullReval, no trace": `trace
  - > var.full ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  var.full > risk.revalue ×1
untraced
`,
	"PriceBatch, caller's trace": `trace
  - > test.caller ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×3
  farm.task > farm.compute ×3
  farm.task > farm.fetch ×1
  risk.price_batch > farm.run ×1
  test.caller > risk.price_batch ×1
untraced
`,
	"PriceBatch, nil registry": `trace
  - > test.caller ×1
untraced
`,
	"PriceBatch, no trace": `untraced
  farm.compute ×3
  farm.dispatch ×1
  farm.run ×1
  farm.task ×3
  risk.price_batch ×1
`,
	"RevalueContext, caller's trace": `trace
  - > test.caller ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
  test.caller > risk.revalue ×1
untraced
`,
	"RevalueContext, nil registry": `trace
  - > test.caller ×1
untraced
`,
	"RevalueContext, no trace": `trace
  - > risk.revalue ×1
  farm.run > farm.dispatch ×1
  farm.run > farm.task ×4
  farm.task > farm.compute ×4
  farm.task > farm.fetch ×1
  risk.farm > farm.run ×1
  risk.revalue > risk.build ×1
  risk.revalue > risk.farm ×1
  risk.revalue > risk.scatter ×1
untraced
`,
}
