package risk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// errNotFarmed is what refusingBackend answers every round with.
var errNotFarmed = errors.New("sized, not farmed")

// refusingBackend prices nothing: behind a recordingBackend it shows how a
// round would be dealt without paying for the round.
type refusingBackend struct{}

func (refusingBackend) Run(context.Context, []farm.Task, farm.Options, int) ([]farm.Result, error) {
	return nil, errNotFarmed
}

// TestRevalueMessageSizing pins how a revaluation deals its sweeps. The
// toy book, every claim a CF_Call, is bunched: at 1, 2 and 3 workers it
// ships in at most messagesPerWorker messages a worker on the default,
// inproc and unix backends, and every cell of its surface is still, to
// the bit, Scenario.Apply + Compute. A book with one claim of a method
// that is not instantaneous — the toy book plus a Monte Carlo call, the
// var_real sample of the realistic book — keeps today's 2 × BatchSize
// cells a message. A round with nothing to farm still answers.
func TestRevalueMessageSizing(t *testing.T) {
	// 24 scenarios, as many as the var_toy report's.
	grid := Grid([]float64{-0.1, -0.05, 0.05, 0.1}, []float64{-0.2, -0.1, 0.1, 0.2})
	pf, scenarios := portfolio.Toy(250), append(append(grid, RateShifts()...), SpotLadder()[:2]...)
	want := make([][]premia.Result, len(pf.Items)) // [i][0] base, [i][s+1] scenario s
	for i, it := range pf.Items {
		res, err := it.Problem.Compute()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(want[i], res)
		for _, sc := range scenarios {
			shifted, err := sc.Apply(it.Problem)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = shifted.Compute(); err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}
	bits := math.Float64bits
	for _, name := range []string{"default", "inproc", "unix"} {
		for w := 1; w <= 3; w++ {
			t.Run(fmt.Sprintf("%s/%d", name, w), func(t *testing.T) {
				rec := &recordingBackend{inner: standingBackends()[name]}
				reg := telemetry.New()
				val, err := Engine{Workers: w, Telemetry: reg, Backend: rec}.Revalue(pf, scenarios)
				if err != nil {
					t.Fatal(err)
				}
				if got := reg.Snapshot().Spans["farm.dispatch"].Count; got > int64(messagesPerWorker*w) {
					t.Errorf("the round shipped %d messages, want at most %d", got, messagesPerWorker*w)
				}
				if per := (pf.Size() + messagesPerWorker*w - 1) / (messagesPerWorker * w); len(rec.batches) != 1 || rec.batches[0] != per {
					t.Errorf("the round dealt %v sweeps a message, want %d", rec.batches, per)
				}
				for i := range pf.Items {
					if r := want[i][0]; bits(val.Base[i]) != bits(r.Price) || bits(val.BaseDelta[i]) != bits(r.Delta) || val.BaseHasDelta[i] != r.HasDelta {
						t.Fatalf("%s base: (%v, %v, %v), Compute %+v", pf.Items[i].Name, val.Base[i], val.BaseDelta[i], val.BaseHasDelta[i], r)
					}
					for s := range scenarios {
						if got := val.Values[s][i]; bits(got) != bits(want[i][s+1].Price) {
							t.Fatalf("%s under %s: %v, Apply + Compute %v", pf.Items[i].Name, scenarios[s].Name, got, want[i][s+1].Price)
						}
					}
				}
			})
		}
	}

	// Books that keep today's sizing, sized without being priced.
	mixed := portfolio.Toy(250)
	mixed.Items = append(mixed.Items, portfolio.Item{Name: "mc", Problem: mcProblem(7), Cost: 1})
	real := portfolio.Realistic()
	sample := &portfolio.Portfolio{Name: "realistic-sample"}
	for i := 0; i < len(real.Items); i += 244 { // the var_real book's stride
		sample.Items = append(sample.Items, real.Items[i])
	}
	for _, tc := range []struct {
		name      string
		pf        *portfolio.Portfolio
		scenarios []Scenario
	}{
		{"toy plus MC_Euro", mixed, scenarios},
		{"var_real sample", sample, SpotLadder()[:5]},
	} {
		rec := &recordingBackend{inner: refusingBackend{}}
		e := Engine{Workers: 2, Backend: rec}
		if _, err := e.Revalue(tc.pf, tc.scenarios); !errors.Is(err, errNotFarmed) {
			t.Fatalf("%s: %v, want the refusing backend's error", tc.name, err)
		}
		if per := max(1, 2*e.batch()/(len(tc.scenarios)+1)); len(rec.batches) != 1 || rec.batches[0] != per {
			t.Errorf("%s: dealt %v sweeps a message, want today's %d", tc.name, rec.batches, per)
		}
	}

	// Nothing to farm: an empty book, and a book whose base column is all
	// cached under a scenario that applies to none of its claims.
	rec := &recordingBackend{inner: refusingBackend{}}
	val, err := Engine{Workers: 2, Backend: rec}.Revalue(&portfolio.Portfolio{Name: "empty"}, scenarios)
	if err != nil || len(val.Items) != 0 || len(val.Values) != len(scenarios) || len(val.Values[0]) != 0 {
		t.Fatalf("empty book: %+v, %v; want an empty surface", val, err)
	}
	cache := newMapCache()
	for _, it := range pf.Items {
		res, _ := it.Problem.Compute()
		cache.Put(it.Problem.ContentKey(), res)
	}
	credit := []Scenario{{Name: "hazard", Shifts: []Shift{{Param: "lambda", Abs: 0.01}}}}
	if val, err = (Engine{Workers: 2, Cache: cache, Backend: rec}).Revalue(pf, credit); err != nil {
		t.Fatal(err)
	}
	for i := range pf.Items {
		if val.Values[0][i] != want[i][0].Price {
			t.Fatalf("%s: %v under a scenario it is outside of, base %v", pf.Items[i].Name, val.Values[0][i], want[i][0].Price)
		}
	}
	if len(rec.batches) != 0 {
		t.Errorf("rounds %v farmed for books with nothing to farm", rec.batches)
	}
}

// TestMonteCarloRoundNotBunched: a round of nothing but Monte Carlo
// claims whose methods price a sweep by a block form of their own — the
// realistic book's 2 075 basket, local vol and LSM claims, sized without
// being priced — is not bunched. Its sweeps cost milliseconds a cell, so
// they keep 2 × BatchSize cells a message, which bounds what a
// cancellation waits for; bunched, the round would deal ~130 sweeps a
// message.
func TestMonteCarloRoundNotBunched(t *testing.T) {
	pf := &portfolio.Portfolio{Name: "monte-carlo"}
	for _, it := range portfolio.Realistic().Items {
		switch it.Problem.Method {
		case premia.MethodMCBasket, premia.MethodMCLocalVol, premia.MethodMCAmerLSM:
			pf.Items = append(pf.Items, it)
		}
	}
	scenarios := SpotLadder()[:5]
	rec := &recordingBackend{inner: refusingBackend{}}
	e := Engine{Workers: 2, Backend: rec}
	if _, err := e.Revalue(pf, scenarios); !errors.Is(err, errNotFarmed) {
		t.Fatalf("%v, want the refusing backend's error", err)
	}
	per := max(1, 2*e.batch()/(len(scenarios)+1))
	if bunched := e.sweepsPerMessage(pf.Size(), len(scenarios), true, cellWireBytes(pf.Items[0].Problem)); bunched <= per {
		t.Fatalf("%d claims would deal %d sweeps a message bunched, %d not: too few to tell", pf.Size(), bunched, per)
	}
	if len(rec.batches) != 1 || rec.batches[0] != per {
		t.Errorf("dealt %v sweeps a message, want the unbunched %d", rec.batches, per)
	}
}

// cancelAfter runs the round on inner and cancels it d after the round
// starts, sending the instant it did on at.
type cancelAfter struct {
	d      time.Duration
	cancel context.CancelFunc
	at     chan time.Time
	inner  recordingBackend
}

func (b *cancelAfter) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error) {
	time.AfterFunc(b.d, func() { b.at <- time.Now(); b.cancel() })
	return b.inner.Run(ctx, tasks, opts, workers)
}

// capBook is the toy book at the /risk/report caps: 4096 claims under 255
// one-shift scenarios, 2²⁰ cells.
func capBook() (*portfolio.Portfolio, []Scenario) {
	scenarios := make([]Scenario, 255)
	for s := range scenarios {
		scenarios[s] = Scenario{Name: "s" + strconv.Itoa(s), Shifts: []Shift{{Param: "S0", Rel: 0.001 * float64(s-127)}}}
	}
	return portfolio.Toy(4096), scenarios
}

// TestRevalueCancelBunched: a bunched round still cancels promptly. A
// revaluation of the toy book at the request cap — 2²⁰ cells, dealt to
// two workers in eight messages each of 65 536 cells — cancelled 5 ms
// into its round returns context.Canceled within the drain of the message
// each worker holds: a one-shot world closes under its workers, a
// standing session lets their messages finish. The return measured 2–12
// ms after the cancel on 2 vCPUs and 11–23 ms under -race; the 2 s bound
// is TestRevalueCancelMidRound's, room for a loaded machine.
func TestRevalueCancelBunched(t *testing.T) {
	pf, scenarios := capBook()
	for _, stand := range []bool{false, true} {
		t.Run(map[bool]string{false: "one-shot", true: "standing"}[stand], func(t *testing.T) {
			e := Engine{Workers: 2}
			if stand {
				stop := e.Stand()
				defer stop()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b := &cancelAfter{d: 5 * time.Millisecond, cancel: cancel, at: make(chan time.Time, 1), inner: recordingBackend{inner: e.Backend}}
			e.Backend = b
			_, err := e.RevalueContext(ctx, pf, scenarios)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled revaluation returned %v", err)
			}
			drain := time.Since(<-b.at)
			t.Logf("returned %v after the cancel", drain)
			if drain > 2*time.Second {
				t.Errorf("cancellation took %v", drain)
			}
			sweeps := len(b.inner.tasks)
			if per := (sweeps + 2*messagesPerWorker - 1) / (2 * messagesPerWorker); len(b.inner.batches) != 1 || b.inner.batches[0] != per {
				t.Errorf("the round dealt %v of its %d sweeps a message, want %d: bunched", b.inner.batches, sweeps, per)
			}
		})
	}
}

// maxFrame is mpi's bound on one frame's payload.
const maxFrame = 64 << 20

// TestBunchedMessageFitsFrame: over a framed transport a bunched message's
// sweeps are dealt as their cells, each a serialized problem, so the
// largest message the /risk/report caps admit — one worker, 2²⁰ cells —
// must still fit an mpi frame. Validate admits any extra parameter on a
// CF_Call, so the largest is unbounded: the book's claims carry the six
// the formula reads plus the stamped thread count and a split seed, and
// then 200 more with 40-byte names. The first book is bunched as far as
// the rule goes; the second is capped at bunchedMessageBytes. Neither
// message's payload, built as the farm builds it, outgrows that bound.
func TestBunchedMessageFitsFrame(t *testing.T) {
	pf, scenarios := capBook()
	for i := range pf.Items {
		pf.Items[i].Problem.Set("threads", 64).SetSeed(math.MaxUint64)
	}
	unread := make([]string, 200)
	for k := range unread {
		unread[k] = fmt.Sprintf("unread-parameter-padded-to-forty-b-%05d", k)
	}
	padded := &portfolio.Portfolio{Name: "padded"}
	for _, it := range pf.Items {
		p := it.Problem.Clone()
		for _, name := range unread {
			p.Set(name, 1)
		}
		padded.Items = append(padded.Items, portfolio.Item{Name: it.Name, Problem: p, Cost: it.Cost})
	}
	for _, book := range []*portfolio.Portfolio{pf, padded} {
		rec := &recordingBackend{inner: refusingBackend{}}
		e := Engine{Workers: 1, Backend: rec}
		if _, err := e.Revalue(book, scenarios); !errors.Is(err, errNotFarmed) {
			t.Fatalf("%s: %v, want the refusing backend's error", book.Name, err)
		}
		per := rec.batches[0]
		if bunched := (len(rec.tasks) + messagesPerWorker - 1) / messagesPerWorker; per > bunched || per <= max(1, 2*e.batch()/(len(scenarios)+1)) {
			t.Fatalf("%s: %d sweeps a message, want bunched, at most %d", book.Name, per, bunched)
		}
		// Every message but the last holds per sweeps of equal length: the
		// first is the largest.
		payload := nsp.NewList()
		for _, task := range rec.tasks[:per] {
			sw := task.Obj.(*premia.Sweep)
			for k := range sw.Cells {
				data, err := farm.LiveLoader{}.Load(farm.Task{Name: task.Name + "#" + strconv.Itoa(k), Obj: sw.Cell(k)}, farm.SerializedLoad)
				if err != nil {
					t.Fatal(err)
				}
				payload.Add(&nsp.Serial{Data: data})
			}
		}
		ser, err := nsp.Serialize(payload)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d sweeps, %d cells, %d bytes a message", book.Name, per, payload.Len(), len(ser.Data))
		if len(ser.Data) > bunchedMessageBytes || len(ser.Data) > maxFrame {
			t.Errorf("%s: the largest message's payload is %d bytes, past %d", book.Name, len(ser.Data), bunchedMessageBytes)
		}
	}
}
