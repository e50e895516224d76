package farm

import (
	"errors"
	"fmt"
	"slices"

	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// Strategy selects how problems travel from master to worker; the values
// correspond to the columns of the paper's Tables II and III.
type Strategy int

// The three communication strategies of the paper.
const (
	FullLoad Strategy = iota
	NFSLoad
	SerializedLoad
)

// String returns the paper's label for the strategy.
func (s Strategy) String() string {
	switch s {
	case FullLoad:
		return "full load"
	case NFSLoad:
		return "NFS"
	case SerializedLoad:
		return "serialized load"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy reads a strategy's command-line name: "full", "nfs" or
// "serialized".
func ParseStrategy(name string) (Strategy, error) {
	if s, ok := map[string]Strategy{"full": FullLoad, "nfs": NFSLoad, "serialized": SerializedLoad}[name]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want full, nfs or serialized)", name)
}

// NeedsPayload reports whether the master ships problem bytes itself
// (true) or lets the worker fetch them from the shared store (false).
func (s Strategy) NeedsPayload() bool { return s != NFSLoad }

// Message tags of the farm protocol.
const (
	// TagTask carries a batch descriptor (names, costs, sizes); an empty
	// batch tells the worker to stop, like the paper's [''] message.
	TagTask = 1
	// TagPayload carries the batch's problem payloads as a list of
	// serials (FullLoad and SerializedLoad only).
	TagPayload = 2
	// TagResult carries the batch's results back as a list of hashes.
	TagResult = 3
)

// Task is one pricing job of the portfolio.
type Task struct {
	// Name labels the task in spans, events and errors, and every result
	// echoes it; a result is placed by its task's index, so two tasks may
	// share a name. Under NFSLoad it is the path the worker reads from
	// the shared store.
	Name string
	// Data is the problem's save-file content (nsp-serialized stream).
	Data []byte
	// Obj, when set, is the problem object itself — as itself in process,
	// as its hash on the wire. On communicators that pass objects by
	// reference (in-process worlds) the worker gets this very value: a
	// *premia.Problem is priced as it stands, with no conversion to or
	// from the nsp format on either side. On wire transports the loader
	// serializes it on demand, and the codec asks a *premia.Problem for
	// its hash there and nowhere else. A *premia.Sweep — one claim under a
	// list of parameter overrides — is answered by a *PricedBlock: by
	// reference the worker prices its cells on a scratch copy of its own,
	// on a wire transport the master deals the cells as problems and folds
	// their results back. The object — a caller's *premia.Problem, a
	// sweep's Base and Cells included — must not be mutated until the round
	// returns.
	Obj nsp.Object
	// Cost is the task's virtual compute time in seconds, used by
	// simulated executors; live executors ignore it.
	Cost float64
}

// Result is one priced task as collected by the master.
type Result struct {
	// Name echoes the task name.
	Name string
	// Worker is the rank that computed the task.
	Worker int
	// Value is the result object produced by the worker's Executor: the
	// *Priced itself when it crossed by reference, its result hash when it
	// came off a wire (the failure report, in either form, when Err is
	// set). AsPriced reads both.
	Value nsp.Object
	// Err holds the worker-side pricing error, if the task failed. A
	// failure is final: every rank prices a task alike, so the master
	// never farms it again.
	Err error
}

// Options configures a farm run. On a Session the worker-side settings
// — Strategy, the workers' Telemetry and LocalSpans — are those given to
// Open; a round's own Options set its BatchSize, Fleet and the
// master-side Telemetry, and must name the session's Strategy.
type Options struct {
	// Strategy selects the communication strategy (default FullLoad).
	Strategy Strategy
	// BatchSize groups this many tasks per message exchange (default 1,
	// the paper's setting; larger values implement the latency
	// amortisation proposed in the conclusion).
	BatchSize int
	// MasterRank is the rank workers talk to (default 0); sub-masters in
	// a hierarchy override it.
	MasterRank int
	// Telemetry, when non-nil, receives the farm's metrics and spans:
	// queue-wait/serialize/task-latency histograms and per-task spans on
	// the master, fetch/compute histograms and spans on workers, and
	// per-worker busy gauges. Durations are read off the registry clock,
	// so a registry bound to a simulation clock records virtual seconds.
	// Nil (the default) disables instrumentation entirely.
	Telemetry *telemetry.Registry
	// LocalSpans declares that this worker shares its telemetry registry
	// with the master (in-process worlds): its finished spans land in the
	// master's trace table directly, so shipping them back with the
	// results would only be deduplicated away. Workers skip the span
	// payload and the event payload; masters ignore the flag.
	LocalSpans bool
	// Fleet, when non-nil, receives per-worker health updates from the
	// master: in-flight counts, completions, failures and EWMA task
	// durations, served at /debug/farm. Workers ignore it. One
	// Fleet may span many runs so worker history accumulates.
	Fleet *Fleet
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 1
	}
	return o.BatchSize
}

// descriptor field keys. The trace fields are present only on traced
// batches, so untraced runs keep the exact pre-tracing wire format.
const (
	descNames   = "names"
	descCosts   = "costs"
	descSizes   = "sizes"
	descTrace   = "trace"   // trace ID as one ID column entry
	descParents = "parents" // per-task parent span IDs
)

// batchTrace is the trace context a batch carries over the wire: the
// trace ID plus one parent span ID per task, so a worker's farm.compute
// spans parent directly onto the master's farm.task spans.
type batchTrace struct {
	traceID uint64
	parents []uint64
}

func (bt batchTrace) valid() bool { return bt.traceID != 0 && len(bt.parents) > 0 }

// task is the trace context task i's worker spans parent onto.
func (bt batchTrace) task(i int) telemetry.TraceContext {
	return telemetry.TraceContext{TraceID: bt.traceID, SpanID: bt.parents[i]}
}

// batchDesc is a decoded batch descriptor: task stubs (Data is not
// carried by the descriptor; sizes preserve the payload byte counts)
// plus the batch's trace context — zero, or valid with one parent per
// task.
type batchDesc struct {
	Names []string
	Costs []float64
	Sizes []float64 // exact non-negative integers
	Trace batchTrace
}

// encodeBatch builds the descriptor hash for a batch of tasks. An empty
// batch is the stop message. A valid bt (one parent per task) rides the
// descriptor; an invalid one leaves the descriptor untraced.
func encodeBatch(tasks []Task, bt batchTrace) *nsp.Hash {
	k := len(tasks)
	w := newBundle()
	names, costs, sizes := w.strs(descNames, k), w.floats(descCosts, k), w.floats(descSizes, k)
	for i, t := range tasks {
		names[i] = t.Name
		costs[i] = t.Cost
		sizes[i] = float64(len(t.Data))
	}
	if bt.valid() && len(bt.parents) == k {
		w.ids(descTrace, 1).put(0, bt.traceID)
		parents := w.ids(descParents, k)
		for i, p := range bt.parents {
			parents.put(i, p)
		}
	}
	return w.h
}

// decodeBatch parses a descriptor hash back into a batchDesc.
func decodeBatch(o nsp.Object) (batchDesc, error) {
	r := readBundle(o, "descriptor")
	d := batchDesc{Names: r.strs(descNames, -1)}
	k := len(d.Names)
	d.Costs = r.floats(descCosts, k)
	d.Sizes = r.ints(descSizes, k, 0, maxCount)
	if r.has(descTrace) {
		trace, parents := r.ids(descTrace, 1), r.ids(descParents, k)
		if r.err == nil {
			d.Trace = batchTrace{traceID: trace.at(0), parents: make([]uint64, k)}
			for i := range d.Trace.parents {
				d.Trace.parents[i] = parents.at(i)
			}
			if !d.Trace.valid() {
				r.fail("carries an empty trace context")
			}
		}
	}
	if r.err != nil {
		return batchDesc{}, r.err
	}
	return d, nil
}

// Priced is the result object of one task: the pricing outcome as a Go
// value. Between ranks of one address space the pointer is what crosses
// and the master reads the fields directly; wherever bytes are needed —
// a framed transport — the nsp codec asks for the result hash
// (WireForm), which is the farm's wire format for a result.
type Priced struct {
	// Name echoes the task name.
	Name string
	// Result is the pricing outcome; zero when Err is set.
	Result premia.Result
	// Seconds is the compute time RunWorker measured for the task.
	Seconds float64
	// Err is the worker-side pricing failure, nil for a priced task. Only
	// its text crosses a wire.
	Err error
}

var _ nsp.WireFormer = (*Priced)(nil)

// Kind implements nsp.Object: a result travels as a hash.
func (p *Priced) Kind() nsp.Kind { return nsp.KindHash }

// Equal implements nsp.Object as equality of wire forms.
func (p *Priced) Equal(o nsp.Object) bool { return nsp.WireEqual(p, o) }

// WireForm implements nsp.WireFormer with the result hash: name, price,
// priceCI, delta, work and seconds, plus hasdelta when the method
// computed a delta (it distinguishes "delta is 0" from "no delta", so a
// consumer rebuilding a premia.Result keeps full fidelity). A failed
// task is name, error and seconds.
func (p *Priced) WireForm() (nsp.Object, error) {
	w := newBundle()
	w.str("name", p.Name)
	w.scalar("seconds", p.Seconds)
	if p.Err != nil {
		w.str("error", p.Err.Error())
		return w.h, nil
	}
	w.scalar("price", p.Result.Price)
	w.scalar("priceCI", p.Result.PriceCI)
	w.scalar("delta", p.Result.Delta)
	w.scalar("work", p.Result.Work)
	if p.Result.HasDelta {
		w.scalar("hasdelta", 1)
	}
	return w.h, nil
}

// AsPriced returns a collected result in its typed form: the value
// itself when it crossed the farm by reference, decoded from its hash
// when it came off a wire or out of a results file. Fields a foreign
// executor's hash leaves out read as zero; a result that is neither a
// failure nor carries a price is an error.
func AsPriced(r Result) (*Priced, error) {
	if p, ok := r.Value.(*Priced); ok {
		return p, nil
	}
	b := readBundle(r.Value, "result")
	p := &Priced{Name: b.str("name"), Seconds: b.opt("seconds")}
	if b.has("error") {
		p.Err = errors.New(b.str("error"))
	} else {
		p.Result = premia.Result{
			Price:    b.scalar("price"),
			PriceCI:  b.opt("priceCI"),
			Delta:    b.opt("delta"),
			Work:     b.opt("work"),
			HasDelta: b.opt("hasdelta") != 0,
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return p, nil
}

// PricedBlock is the result object of a sweep task (a *premia.Sweep): the
// pricing outcome of every cell, by cell index. It crosses by reference
// and has no wire form — on a communicator that carries bytes the master
// ships a sweep's cells as problems and folds their result hashes back
// into the block before the round returns, so a caller reads a sweep's
// answer the same way wherever the workers live.
//
// By reference the sweep is one task, and it succeeded whatever its cells
// did: a failed cell is the block's to report (Errs). Over a wire each
// cell is a task of its own, and Errs[k] is the master's rank-attributed
// failure of cell k.
type PricedBlock struct {
	// Name echoes the task name.
	Name string
	// Results[k] is cell k's pricing outcome; zero where Errs[k] is set.
	Results []premia.Result
	// Errs is nil when every cell priced; otherwise Errs[k] is cell k's
	// failure, nil for a priced cell.
	Errs []error
	// Seconds is the compute time RunWorker measured for the whole sweep.
	Seconds float64
}

// Kind implements nsp.Object: a block is a list of results.
func (b *PricedBlock) Kind() nsp.Kind { return nsp.KindList }

// Equal implements nsp.Object: the same outcome for every cell, a failure
// being its text.
func (b *PricedBlock) Equal(o nsp.Object) bool {
	c, ok := o.(*PricedBlock)
	return ok && b.Name == c.Name && slices.Equal(b.Results, c.Results) &&
		slices.EqualFunc(b.Errs, c.Errs, func(x, y error) bool {
			return (x == nil) == (y == nil) && (x == nil || x.Error() == y.Error())
		})
}

// readResult reads what a master needs of a result hash collected from
// the given rank: the echoed task name and, for a task that failed
// there, the failure the worker reported (Value keeps the hash so
// hierarchies can forward it).
func readResult(value nsp.Object, worker int) (Result, error) {
	b := readBundle(value, "result")
	r := Result{Name: b.str("name"), Worker: worker, Value: value}
	if b.has("error") {
		r.Err = failedOn(r.Name, worker, b.str("error"))
	}
	return r, b.err
}

// failedOn is the master-side error of a task whose pricing failed on a
// worker, built from the failure text the worker reported.
func failedOn(name string, worker int, msg string) error {
	return fmt.Errorf("farm: task %q failed on worker %d: %s", name, worker, msg)
}
