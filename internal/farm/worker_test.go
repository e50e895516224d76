package farm

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// mixedMessage is one message of every kind of task a revaluation ships:
// a barrier PDE sweep whose second cell is refused (a negative
// volatility), block sweeps of MC_Basket and MC_LocalVol, an LSM basket
// sweep, a closed-form problem and a closed-form problem without its
// strike, which fails in the kernel.
func mixedMessage() []Task {
	shifts := [][]premia.Override{nil, {{Param: "S0", Value: 95}}, {{Param: "S0", Value: 105}, {Param: "r", Value: 0.05}}}
	sweep := func(base *premia.Problem, cells [][]premia.Override) *premia.Sweep {
		return &premia.Sweep{Base: base, Cells: cells}
	}
	barrier := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallDownOut).SetMethod(premia.MethodFDCrank).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("K", 100).Set("T", 1).Set("L", 75).Set("steps", 60).Set("nodes", 120)
	basket := premia.New().
		SetModel(premia.ModelBSND).SetOption(premia.OptPutBasketEuro).SetMethod(premia.MethodMCBasket).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("dim", 5).Set("rho", 0.3).Set("K", 100).Set("T", 1).Set("paths", 4000)
	locvol := premia.New().
		SetModel(premia.ModelLocVol).SetOption(premia.OptCallEuro).SetMethod(premia.MethodMCLocalVol).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).
		Set("sigma0", 0.22).Set("skew", -0.15).Set("termslope", 0.02).
		Set("K", 100).Set("T", 1).Set("paths", 4000).Set("mcsteps", 20)
	lsm := premia.New().
		SetModel(premia.ModelBSND).SetOption(premia.OptPutBasketAmer).SetMethod(premia.MethodMCAmerLSM).
		Set("S0", 100).Set("r", 0.045).Set("divid", 0.01).Set("sigma", 0.22).
		Set("dim", 3).Set("rho", 0.3).Set("K", 100).Set("T", 1).Set("paths", 2000).Set("exdates", 10)
	call := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.045).Set("sigma", 0.22).Set("T", 1)
	return []Task{
		{Name: "barrier", Obj: sweep(barrier, [][]premia.Override{nil, {{Param: "sigma", Value: -1}}, {{Param: "S0", Value: 105}}})},
		{Name: "basket", Obj: sweep(basket, shifts)},
		{Name: "locvol", Obj: sweep(locvol, shifts)},
		{Name: "lsm", Obj: sweep(lsm, shifts)},
		{Name: "call", Obj: call.Clone().Set("K", 95)},
		{Name: "nostrike", Obj: call},
	}
}

// replyOf renders a round's answers and the master's farm.compute
// events, each in the order it arrived, with every bit of every price
// and the text of every failure, and nothing measured.
func replyOf(t *testing.T, results []Result, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s err=%v:", r.Name, r.Err)
		if block, ok := r.Value.(*PricedBlock); ok {
			fmt.Fprintf(&b, " block %+v %v\n", block.Results, block.Errs)
			continue
		}
		if r.Err == nil {
			p, err := AsPriced(r)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " %+v", p.Result)
		}
		b.WriteString("\n")
	}
	for _, ev := range reg.Events(telemetry.EventFilter{Prefix: "farm.compute"}) {
		fmt.Fprintf(&b, "event %s rank %d %v\n", ev.Name, ev.Rank, ev.Fields)
	}
	return b.String()
}

// computeSeconds sums the compute times a round's results carry.
func computeSeconds(t *testing.T, results []Result) float64 {
	t.Helper()
	sum := 0.0
	for _, r := range results {
		if block, ok := r.Value.(*PricedBlock); ok {
			sum += block.Seconds
			continue
		}
		p, err := AsPriced(r)
		if err != nil {
			t.Fatal(err)
		}
		sum += p.Seconds
	}
	return sum
}

// overlapExec prices through LiveExecutor and records how many of its
// calls were ever in flight at once. With hold set every call waits (up
// to ten seconds) until a second call is in flight, so a message priced
// side by side shows two at once however the goroutines are scheduled.
type overlapExec struct {
	inFlight, most atomic.Int64
	fanned         atomic.Int64 // SideBySide calls, when wide
	hold           atomic.Bool  // cleared by the first call that waits in vain
}

func (e *overlapExec) enter() {
	n := e.inFlight.Add(1)
	for m := e.most.Load(); n > m && !e.most.CompareAndSwap(m, n); m = e.most.Load() {
	}
	for deadline := time.Now().Add(10 * time.Second); e.hold.Load() && e.most.Load() < 2; {
		if time.Now().After(deadline) {
			e.hold.Store(false)
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *overlapExec) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	e.enter()
	defer e.inFlight.Add(-1)
	return LiveExecutor{}.Execute(name, payload, cost, size)
}

func (e *overlapExec) ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error) {
	e.enter()
	defer e.inFlight.Add(-1)
	return LiveExecutor{}.ExecuteObj(name, obj, cost, size)
}

// wideOverlap is an overlapExec with LiveExecutor's WideExecutor half.
type wideOverlap struct {
	*overlapExec
	LiveExecutor
}

func (e wideOverlap) SideBySide(n int, price func(i int)) {
	e.fanned.Add(1)
	e.LiveExecutor.SideBySide(n, price)
}

func (e wideOverlap) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	return e.overlapExec.Execute(name, payload, cost, size)
}

func (e wideOverlap) ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error) {
	return e.overlapExec.ExecuteObj(name, obj, cost, size)
}

// TestWorkerPricesAMessageSideBySide: one worker given one message of
// mixed tasks prices them side by side at the kernel width, and answers
// exactly what it answers at width 1 — every price, every failure, every
// event, in the same order — by reference (farm.Local) and over an inproc
// hub, where the sweeps arrive as cells and every problem as bytes. An
// executor without the WideExecutor half keeps the serial loop whatever
// the width.
func TestWorkerPricesAMessageSideBySide(t *testing.T) {
	defer premia.SetKernelThreads(0)
	opts := func(reg *telemetry.Registry) Options {
		return Options{Strategy: SerializedLoad, BatchSize: 64, Telemetry: reg}
	}
	backends := map[string]func(exec Executor, reg *telemetry.Registry) ([]Result, error){
		"local": func(exec Executor, reg *telemetry.Registry) ([]Result, error) {
			return Local{Exec: exec}.Run(context.Background(), mixedMessage(), opts(reg), 1)
		},
		"inproc": func(exec Executor, reg *telemetry.Registry) ([]Result, error) {
			return runHubFarm(t, exec, mixedMessage(), 1, opts(reg))
		},
	}
	for name, run := range backends {
		t.Run(name, func(t *testing.T) {
			reply := func(width int, exec Executor) string {
				premia.SetKernelThreads(width)
				reg := telemetry.New()
				start := time.Now()
				results, err := run(exec, reg)
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				// However the tasks overlapped, their compute times add
				// up to no more than the round took.
				if sum, wall := computeSeconds(t, results), time.Since(start).Seconds(); sum > wall {
					t.Errorf("width %d: the tasks' compute times sum to %.4g s in a round of %.4g s", width, sum, wall)
				}
				return replyOf(t, results, reg)
			}
			want := reply(1, LiveExecutor{})
			if n := strings.Count(want, "event farm.compute.error"); n != 2 || !strings.Contains(want, "missing parameter") {
				t.Fatalf("width 1: %d compute errors, want the refused cell and the missing strike:\n%s", n, want)
			}
			for _, width := range []int{2, 8} {
				if got := reply(width, LiveExecutor{}); got != want {
					t.Errorf("width %d answered\n%s\nwidth 1 answered\n%s", width, got, want)
				}
				serial := &overlapExec{}
				if got := reply(width, serial); got != want || serial.most.Load() != 1 {
					t.Errorf("width %d, an executor without the wide half: %d tasks at once, reply equal %v", width, serial.most.Load(), got == want)
				}
				wide := wideOverlap{overlapExec: &overlapExec{}}
				wide.hold.Store(true)
				if got := reply(width, wide); got != want || wide.most.Load() < 2 {
					t.Errorf("width %d, a wide executor: %d tasks at once, reply equal %v", width, wide.most.Load(), got == want)
				}
			}
		})
	}
}

// TestWorkerKeepsInstantMessagesSerial: a message of one task, or of
// closed-form tasks only, is priced in turn on the worker's goroutine
// however wide the kernel — a hand-off would cost more than the price.
func TestWorkerKeepsInstantMessagesSerial(t *testing.T) {
	defer premia.SetKernelThreads(0)
	premia.SetKernelThreads(8)
	all := mixedMessage()
	for name, tasks := range map[string][]Task{"closed-form": all[4:], "one task": all[1:2]} {
		exec := wideOverlap{overlapExec: &overlapExec{}}
		if _, err := (Local{Exec: exec}).Run(context.Background(), tasks, Options{Strategy: SerializedLoad, BatchSize: 64}, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, fanned := exec.most.Load(), exec.fanned.Load(); n != 1 || fanned != 0 {
			t.Errorf("%s: %d tasks at once over %d side-by-side runs, want 1 and none", name, n, fanned)
		}
	}
}
