package farm

import (
	"errors"
	"fmt"
	"math"

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
	// Name identifies the task; under NFSLoad it is the path the worker
	// reads from the shared store.
	Name string
	// Data is the problem's save-file content (nsp-serialized stream).
	Data []byte
	// Obj, when set, is the problem object itself — as itself in process,
	// as its hash on the wire. On communicators that pass objects by
	// reference (in-process worlds) the worker gets this very value: a
	// *premia.Problem is priced as it stands, with no conversion to or
	// from the nsp format on either side. On wire transports the loader
	// serializes it on demand, and the codec asks a *premia.Problem for
	// its hash there and nowhere else. The object — a caller's
	// *premia.Problem included — must not be mutated until the round
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
	// Err holds the worker-side pricing error, if the task failed on
	// every attempt.
	Err error
}

// Options configures a farm run.
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
	// MaxRetries is how many times the master re-farms a task whose
	// pricing failed on a worker (each retry goes to whichever worker is
	// free, usually a different one). Tasks failing every attempt come
	// back with Result.Err set. Transport and protocol errors are always
	// fatal regardless of this setting.
	MaxRetries int
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
	// master: in-flight counts, completions, failures, redeals and EWMA
	// task durations, served at /debug/farm. Workers ignore it. One
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
	descTrace   = "trace"   // trace ID as a 1x2 matrix of 32-bit halves
	descParents = "parents" // per-task parent span IDs, 1x2k halves
)

// splitU64 / joinU64 carry 64-bit IDs through nsp float matrices as
// exact high/low 32-bit halves; a single float64 cannot hold them.
func splitU64(m *nsp.Mat, i int, v uint64) {
	m.Data[2*i] = float64(v >> 32)
	m.Data[2*i+1] = float64(uint32(v))
}

func joinU64(m *nsp.Mat, i int) (uint64, error) {
	hi, lo := m.Data[2*i], m.Data[2*i+1]
	const lim = 1 << 32
	if hi != math.Trunc(hi) || lo != math.Trunc(lo) || hi < 0 || lo < 0 || hi >= lim || lo >= lim {
		return 0, fmt.Errorf("id halves (%v, %v) out of range", hi, lo)
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// batchTrace is the trace context a batch carries over the wire: the
// trace ID plus one parent span ID per task, so a worker's farm.compute
// spans parent directly onto the master's farm.task spans.
type batchTrace struct {
	traceID uint64
	parents []uint64
}

func (bt batchTrace) valid() bool { return bt.traceID != 0 && len(bt.parents) > 0 }

// batchDesc is a decoded batch descriptor: task stubs (Data is not
// carried by the descriptor; sizes preserve the payload byte counts)
// plus the batch's trace context, if any.
type batchDesc struct {
	Names []string
	Costs []float64
	Sizes []float64
	Trace batchTrace
}

// encodeBatch builds the descriptor hash for a batch of tasks. An empty
// batch is the stop message. A valid bt (one parent per task) rides the
// descriptor; an invalid one leaves the descriptor untraced.
func encodeBatch(tasks []Task, bt batchTrace) *nsp.Hash {
	k := len(tasks)
	names := nsp.NewSMat(1, k)
	costs := nsp.NewMat(1, k)
	sizes := nsp.NewMat(1, k)
	for i, t := range tasks {
		names.Data[i] = t.Name
		costs.Data[i] = t.Cost
		sizes.Data[i] = float64(len(t.Data))
	}
	h := nsp.NewHash()
	h.Set(descNames, names)
	h.Set(descCosts, costs)
	h.Set(descSizes, sizes)
	if bt.valid() && len(bt.parents) == k {
		trace := nsp.NewMat(1, 2)
		splitU64(trace, 0, bt.traceID)
		parents := nsp.NewMat(1, 2*k)
		for i, p := range bt.parents {
			splitU64(parents, i, p)
		}
		h.Set(descTrace, trace)
		h.Set(descParents, parents)
	}
	return h
}

// decodeBatch parses a descriptor hash back into a batchDesc.
func decodeBatch(o nsp.Object) (batchDesc, error) {
	var d batchDesc
	h, ok := o.(*nsp.Hash)
	if !ok {
		return d, fmt.Errorf("farm: descriptor is %v, want hash", o.Kind())
	}
	nv, ok1 := h.Get(descNames)
	cv, ok2 := h.Get(descCosts)
	sv, ok3 := h.Get(descSizes)
	if !ok1 || !ok2 || !ok3 {
		return d, errors.New("farm: descriptor missing fields")
	}
	nm, ok1 := nv.(*nsp.SMat)
	cm, ok2 := cv.(*nsp.Mat)
	sm, ok3 := sv.(*nsp.Mat)
	if !ok1 || !ok2 || !ok3 {
		return d, errors.New("farm: descriptor fields have wrong types")
	}
	k := len(nm.Data)
	if len(cm.Data) != k || len(sm.Data) != k {
		return d, errors.New("farm: descriptor field lengths disagree")
	}
	d.Names, d.Costs, d.Sizes = nm.Data, cm.Data, sm.Data
	if tv, ok := h.Get(descTrace); ok {
		tm, ok := tv.(*nsp.Mat)
		if !ok || len(tm.Data) != 2 {
			return d, errors.New("farm: descriptor trace field malformed")
		}
		traceID, err := joinU64(tm, 0)
		if err != nil {
			return d, fmt.Errorf("farm: descriptor trace ID: %w", err)
		}
		pv, ok := h.Get(descParents)
		if !ok {
			return d, errors.New("farm: traced descriptor missing parents")
		}
		pm, ok := pv.(*nsp.Mat)
		if !ok || len(pm.Data) != 2*k {
			return d, errors.New("farm: descriptor parents malformed")
		}
		parents := make([]uint64, k)
		for i := range parents {
			if parents[i], err = joinU64(pm, i); err != nil {
				return d, fmt.Errorf("farm: descriptor parent %d: %w", i, err)
			}
		}
		d.Trace = batchTrace{traceID: traceID, parents: parents}
	}
	return d, nil
}

// Span-payload field keys. A traced worker appends one extra hash,
// marked by spanMarker, to its result list, carrying the SpanRecords it
// finished for the batch plus its descriptor-receive clock reading (so
// the master can shift worker clocks onto its own).
const (
	spanMarker  = "__spans"
	spanIDs     = "ids" // 1x2n matrix of 32-bit ID halves
	spanParents = "parents"
	spanTraces  = "traces"
	spanNames   = "names"  // intern table: the distinct span names
	spanNameIx  = "nameix" // per-span index into the intern table
	spanStarts  = "starts"
	spanEnds    = "ends"
	spanRecvAt  = "recvat"
)

// encodeSpanPayload packs finished worker spans for the trip back to the
// master. recvAt is the worker clock at descriptor receipt. Names are
// interned (a batch's spans repeat a handful of names) and IDs travel as
// split 32-bit halves, keeping the payload free of per-span strings.
func encodeSpanPayload(recs []telemetry.SpanRecord, recvAt float64) *nsp.Hash {
	n := len(recs)
	ids := nsp.NewMat(1, 2*n)
	parents := nsp.NewMat(1, 2*n)
	traces := nsp.NewMat(1, 2*n)
	nameIx := nsp.NewMat(1, n)
	starts := nsp.NewMat(1, n)
	ends := nsp.NewMat(1, n)
	var uniq []string
	for i, rec := range recs {
		splitU64(ids, i, rec.ID)
		splitU64(parents, i, rec.ParentID)
		splitU64(traces, i, rec.TraceID)
		ix := -1
		for j, s := range uniq {
			if s == rec.Name {
				ix = j
				break
			}
		}
		if ix < 0 {
			ix = len(uniq)
			uniq = append(uniq, rec.Name)
		}
		nameIx.Data[i] = float64(ix)
		starts.Data[i] = rec.Start
		ends.Data[i] = rec.End
	}
	names := nsp.NewSMat(1, len(uniq))
	copy(names.Data, uniq)
	h := nsp.NewHash()
	h.Set(spanMarker, nsp.Scalar(1))
	h.Set(spanIDs, ids)
	h.Set(spanParents, parents)
	h.Set(spanTraces, traces)
	h.Set(spanNames, names)
	h.Set(spanNameIx, nameIx)
	h.Set(spanStarts, starts)
	h.Set(spanEnds, ends)
	h.Set(spanRecvAt, nsp.Scalar(recvAt))
	return h
}

// isSpanPayload reports whether a result-list item is a span payload
// rather than a task result.
func isSpanPayload(o nsp.Object) bool {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return false
	}
	_, ok = h.Get(spanMarker)
	return ok
}

// decodeSpanPayload unpacks a span payload hash.
func decodeSpanPayload(o nsp.Object) ([]telemetry.SpanRecord, float64, error) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return nil, 0, errors.New("farm: span payload is not a hash")
	}
	get := func(key string) (nsp.Object, error) {
		v, ok := h.Get(key)
		if !ok {
			return nil, fmt.Errorf("farm: span payload missing %q", key)
		}
		return v, nil
	}
	mat := func(key string) (*nsp.Mat, error) {
		v, err := get(key)
		if err != nil {
			return nil, err
		}
		m, ok := v.(*nsp.Mat)
		if !ok {
			return nil, fmt.Errorf("farm: span payload %q has wrong type", key)
		}
		return m, nil
	}
	ids, err := mat(spanIDs)
	if err != nil {
		return nil, 0, err
	}
	parents, err := mat(spanParents)
	if err != nil {
		return nil, 0, err
	}
	traces, err := mat(spanTraces)
	if err != nil {
		return nil, 0, err
	}
	nv, err := get(spanNames)
	if err != nil {
		return nil, 0, err
	}
	names, ok := nv.(*nsp.SMat)
	if !ok {
		return nil, 0, fmt.Errorf("farm: span payload %q has wrong type", spanNames)
	}
	nameIx, err := mat(spanNameIx)
	if err != nil {
		return nil, 0, err
	}
	starts, err := mat(spanStarts)
	if err != nil {
		return nil, 0, err
	}
	ends, err := mat(spanEnds)
	if err != nil {
		return nil, 0, err
	}
	rv, err := mat(spanRecvAt)
	if err != nil || len(rv.Data) != 1 {
		return nil, 0, errors.New("farm: span payload recvat malformed")
	}
	n := len(nameIx.Data)
	if len(ids.Data) != 2*n || len(parents.Data) != 2*n || len(traces.Data) != 2*n ||
		len(starts.Data) != n || len(ends.Data) != n {
		return nil, 0, errors.New("farm: span payload field lengths disagree")
	}
	recs := make([]telemetry.SpanRecord, n)
	for i := range recs {
		if recs[i].ID, err = joinU64(ids, i); err != nil {
			return nil, 0, fmt.Errorf("farm: span payload id %d: %w", i, err)
		}
		if recs[i].ParentID, err = joinU64(parents, i); err != nil {
			return nil, 0, fmt.Errorf("farm: span payload parent %d: %w", i, err)
		}
		if recs[i].TraceID, err = joinU64(traces, i); err != nil {
			return nil, 0, fmt.Errorf("farm: span payload trace %d: %w", i, err)
		}
		ix := int(nameIx.Data[i])
		if float64(ix) != nameIx.Data[i] || ix < 0 || ix >= len(names.Data) {
			return nil, 0, fmt.Errorf("farm: span payload name index %d out of range", i)
		}
		recs[i].Name = names.Data[ix]
		recs[i].Start = starts.Data[i]
		recs[i].End = ends.Data[i]
	}
	return recs, rv.Data[0], nil
}

// Priced is the result object of one task: the pricing outcome as a Go
// value. Between ranks of one address space the pointer is what crosses
// and the master reads the fields directly; wherever bytes are needed —
// a framed transport, SaveResults — the nsp codec asks for the result
// hash (WireForm), which is the farm's wire format for a result.
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
	h := nsp.NewHash()
	h.Set("name", nsp.Str(p.Name))
	h.Set("seconds", nsp.Scalar(p.Seconds))
	if p.Err != nil {
		h.Set("error", nsp.Str(p.Err.Error()))
		return h, nil
	}
	h.Set("price", nsp.Scalar(p.Result.Price))
	h.Set("priceCI", nsp.Scalar(p.Result.PriceCI))
	h.Set("delta", nsp.Scalar(p.Result.Delta))
	h.Set("work", nsp.Scalar(p.Result.Work))
	if p.Result.HasDelta {
		h.Set("hasdelta", nsp.Scalar(1))
	}
	return h, nil
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
	name, err := resultName(r.Value)
	if err != nil {
		return nil, err
	}
	h := r.Value.(*nsp.Hash)
	scalar := func(field string) (float64, bool) {
		m, ok := h.Get(field)
		if !ok {
			return 0, false
		}
		v, ok := m.(*nsp.Mat)
		if !ok || v.Rows != 1 || v.Cols != 1 {
			return 0, false
		}
		return v.ScalarValue(), true
	}
	p := &Priced{Name: name}
	p.Seconds, _ = scalar("seconds")
	if msg, failed := resultError(h); failed {
		p.Err = errors.New(msg)
		return p, nil
	}
	var ok bool
	if p.Result.Price, ok = scalar("price"); !ok {
		return nil, fmt.Errorf("farm: result %q has no price", name)
	}
	p.Result.PriceCI, _ = scalar("priceCI")
	p.Result.Delta, _ = scalar("delta")
	p.Result.Work, _ = scalar("work")
	hasDelta, _ := scalar("hasdelta")
	p.Result.HasDelta = hasDelta != 0
	return p, nil
}

// failedOn is the master-side error of a task whose pricing failed on a
// worker, built from the failure text the worker reported.
func failedOn(name string, worker int, msg string) error {
	return fmt.Errorf("farm: task %q failed on worker %d: %s", name, worker, msg)
}

// resultError extracts the failure message from a result hash, if any.
func resultError(o nsp.Object) (string, bool) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return "", false
	}
	v, ok := h.Get("error")
	if !ok {
		return "", false
	}
	s, ok := v.(*nsp.SMat)
	if !ok || s.Rows != 1 || s.Cols != 1 {
		return "", false
	}
	return s.StrValue(), true
}

// resultName extracts the echoed task name from a result object.
func resultName(o nsp.Object) (string, error) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return "", fmt.Errorf("farm: result is %v, want hash", o.Kind())
	}
	v, ok := h.Get("name")
	if !ok {
		return "", errors.New("farm: result missing name")
	}
	s, ok := v.(*nsp.SMat)
	if !ok || s.Rows != 1 || s.Cols != 1 {
		return "", errors.New("farm: result name is not a string")
	}
	return s.StrValue(), nil
}
