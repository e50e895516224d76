package farm

import (
	"fmt"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// Executor abstracts the worker-side pricing of one task. Live executors
// rebuild the premia problem from the payload and really compute;
// simulated executors advance virtual time by the task's cost.
type Executor interface {
	// Execute prices one task and returns its result object (conventionally
	// a *Priced, which crosses an in-process world as itself and a wire as
	// its result hash; any nsp object is carried). payload holds the
	// problem bytes (possibly fetched from the store under NFSLoad); size
	// is the payload size declared by the descriptor, which simulated NFS
	// reads need.
	Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error)
}

// ObjExecutor is the optional extension of Executor for workers on
// object-reference communicators: when the master ships a problem object
// by reference instead of a serialized payload, the worker prices it
// through ExecuteObj with no decode step. Executors that never run on
// such communicators need not implement it.
type ObjExecutor interface {
	Executor
	// ExecuteObj prices one task whose problem arrived as an object: the
	// master's Task.Obj itself — a *premia.Problem as it stands, or the
	// hash a problem travels as — which the executor must not mutate.
	ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error)
}

// WideExecutor is the optional extension of ObjExecutor for executors
// that can price the tasks of one message side by side. RunWorker
// detects it as it detects ObjExecutor; every other executor prices a
// message's tasks one after another, the paper's Fig. 4 loop.
type WideExecutor interface {
	ObjExecutor
	// Prepare is the decode half of Execute: it turns a task's problem
	// as it arrived — payload, or obj when non-nil — into the object
	// ExecuteObj prices with no decode step, failing as Execute would,
	// and reports whether pricing it is instantaneous: cheaper than a
	// goroutine hand-off.
	Prepare(name string, payload []byte, obj nsp.Object) (ready nsp.Object, instant bool, err error)
	// SideBySide calls price(0), …, price(n-1), up to the executor's
	// width at once, and returns when every call has.
	SideBySide(n int, price func(i int))
}

// Store abstracts the shared file system used by the NFSLoad strategy.
type Store interface {
	// Read fetches a problem file's bytes by name. size is the byte count
	// declared by the descriptor (simulated stores charge it as transfer
	// volume; live stores may ignore it).
	Read(name string, size int) ([]byte, error)
}

// RunWorker runs the Fig. 4 slave loop: receive a batch, fetch or unpack
// its payloads, price every task, send the result list back, repeat until
// the empty stop message arrives.
//
// A WideExecutor prices a message of several tasks side by side, each
// task at its own kernel width: every payload is decoded once, while
// fetching, and unless every task is instantaneous the tasks run at
// once, up to the executor's width. The reply — results, shipped spans
// and events — is then built in task order, so it is the serial loop's
// but for the measured times, each task's scaled to its share of the
// message's wall (shareWall). With opts.Telemetry set, payload
// fetches and per-task computations are timed into the
// "farm.fetch_seconds" and "farm.compute_seconds" histograms, each
// computation under a "farm.compute" span. When the batch descriptor
// carries a trace, the spans parent onto the master's farm.task spans
// and their finished records ship back with the results, so the master
// reassembles the whole tree even when the worker is another process.
func RunWorker(c mpi.Comm, exec Executor, store Store, opts Options) error {
	master := opts.MasterRank
	reg := opts.Telemetry
	// clock times compute calls for the result's seconds field. It
	// is the registry clock when there is one (virtual under simnet) and
	// the sanctioned wall fallback otherwise, never raw time.Now — the
	// riskvet wallclock rule.
	clock := telemetry.Wall
	if reg != nil {
		clock = reg.Now
	}
	for {
		obj, _, err := mpi.RecvObj(c, master, TagTask)
		if err != nil {
			reg.Emit(telemetry.LevelError, "farm.worker.exit", telemetry.TraceContext{},
				telemetry.Num("rank", float64(c.Rank())), telemetry.Str("err", err.Error()))
			return fmt.Errorf("farm: worker %d recv descriptor: %w", c.Rank(), err)
		}
		// What ships back with this batch's results: spans as they finish,
		// and the events emitted past the cursor taken here.
		recs := workerRecords{recvAt: reg.Now()}
		evCursor := reg.EventCursor()
		desc, err := decodeBatch(obj)
		if err != nil {
			return err
		}
		names, sizes := desc.Names, desc.Sizes
		if len(names) == 0 {
			reg.Emit(telemetry.LevelInfo, "farm.worker.stop", telemetry.TraceContext{},
				telemetry.Num("rank", float64(c.Rank())))
			return nil // stop message
		}
		// Optional payload features are gated on the negotiated
		// capability set: a hub that never announced the spans
		// capability (an older master during a rolling upgrade) gets
		// results without span payloads, and one that never announced
		// hasdelta gets result hashes without the marker field.
		caps := mpi.PeerCaps(c, master)
		traced := reg != nil && desc.Trace.valid()
		ship := traced && !opts.LocalSpans && caps.Has(mpi.CapSpans)
		// Events ship on their own negotiated capability, tracing or not:
		// warning+ events emitted while pricing this batch ride back for
		// rank-attributed folding into the master's log.
		shipEvents := reg != nil && !opts.LocalSpans && caps.Has(mpi.CapEvents)
		// objs[i] is non-nil when task i's problem was shipped by
		// reference over an in-process communicator.
		var payloads [][]byte
		var objs []nsp.Object
		var fetchSpan *telemetry.Span
		if traced {
			fetchSpan = reg.StartSpanIn(desc.Trace.task(0), "farm.fetch")
		}
		fetchStart := reg.Now()
		if opts.Strategy.NeedsPayload() {
			if payloads, objs, err = recvPayload(c, master, len(names)); err != nil {
				return err
			}
			if objs != nil {
				if _, ok := exec.(ObjExecutor); !ok {
					return fmt.Errorf("farm: worker %d: payload has object items but executor is not an ObjExecutor", c.Rank())
				}
			}
		} else {
			if store == nil {
				return fmt.Errorf("farm: worker %d: NFS strategy without a store", c.Rank())
			}
			payloads = make([][]byte, len(names))
			for i, name := range names {
				data, err := store.Read(name, int(sizes[i]))
				if err != nil {
					return fmt.Errorf("farm: worker %d read %q: %w", c.Rank(), name, err)
				}
				payloads[i] = data
			}
		}
		m := message{batchDesc: desc, exec: exec, reg: reg, clock: clock, traced: traced, payloads: payloads, objs: objs}
		// A wide executor's message of several tasks is decoded here,
		// once: what compute hands ExecuteObj, or the task's failure.
		wide, side := exec.(WideExecutor)
		if side = side && len(names) > 1; side {
			side = m.prepare(wide)
		}
		reg.Observe("farm.fetch_seconds", reg.Now()-fetchStart)
		if fetchSpan != nil {
			fetchSpan.End()
			if ship {
				recs.spans = append(recs.spans, fetchSpan.Record())
			}
		}
		out := nsp.NewList()
		reply := func(i int, t taskRun) {
			name, res, span := names[i], t.res, t.span
			reg.Observe("farm.compute_seconds", t.elapsed)
			if ship {
				recs.spans = append(recs.spans, span.Record())
			}
			if t.err != nil {
				// A pricing failure is the task's problem, not the
				// worker's: report it and keep serving.
				reg.Emit(telemetry.LevelWarn, "farm.compute.error", span.Context(),
					telemetry.Str("task", name), telemetry.Str("err", t.err.Error()))
				res = &Priced{Name: name, Err: t.err}
			}
			switch v := res.(type) {
			case *Priced:
				v.Seconds = t.elapsed
				if !caps.Has(mpi.CapHasDelta) {
					// The wire form carries hasdelta only when it is set.
					v.Result.HasDelta = false
				}
			case *PricedBlock:
				// A sweep's answer, which only ever crosses by reference.
				v.Seconds = t.elapsed
				for k, cerr := range v.Errs {
					if cerr != nil {
						reg.Emit(telemetry.LevelWarn, "farm.compute.error", span.Context(),
							telemetry.Str("task", name), telemetry.Num("cell", float64(k)), telemetry.Str("err", cerr.Error()))
					}
				}
			case *nsp.Hash:
				// A foreign executor's hash: stamp the measured compute
				// time unless it supplied its own.
				if _, has := v.Get("seconds"); !has {
					v.Set("seconds", nsp.Scalar(t.elapsed))
				}
				if !caps.Has(mpi.CapHasDelta) {
					v.Del("hasdelta")
				}
			}
			out.Add(res)
		}
		if side {
			// The goroutines share a copy, so that m stays on the stack
			// of a serial message.
			runs, sm := make([]taskRun, len(names)), m
			start := clock()
			wide.SideBySide(len(names), func(i int) { runs[i] = sm.compute(i) })
			shareWall(runs, clock()-start)
			for i, t := range runs {
				reply(i, t)
			}
		} else {
			for i := range names {
				reply(i, m.compute(i))
			}
		}
		if shipEvents {
			recs.events = reg.Events(telemetry.EventFilter{MinLevel: telemetry.LevelWarn, SinceSeq: evCursor})
		}
		recs.appendTo(out)
		if err := mpi.SendObj(c, out, master, TagResult); err != nil {
			return fmt.Errorf("farm: worker %d send results: %w", c.Rank(), err)
		}
	}
}

// message is one message's tasks as compute prices them: the
// descriptor, each task's payload or object, and the failures prepare
// found.
type message struct {
	batchDesc
	exec     Executor
	reg      *telemetry.Registry
	clock    func() float64
	traced   bool
	payloads [][]byte
	objs     []nsp.Object // task i's problem when objs[i] is non-nil
	errs     []error      // task i's decode failure when errs[i] is non-nil
}

// taskRun is what pricing one task left for the reply: its result or
// failure, its measured compute time and its ended span.
type taskRun struct {
	res     nsp.Object
	err     error
	elapsed float64
	span    *telemetry.Span
}

// compute prices task i under its farm.compute span, timed on the
// worker's clock.
func (m *message) compute(i int) taskRun {
	var span *telemetry.Span
	if m.traced {
		span = m.reg.StartSpanIn(m.Trace.task(i), "farm.compute")
	} else {
		span = m.reg.StartSpan("farm.compute")
	}
	start := m.clock()
	var t taskRun
	switch {
	case m.errs != nil && m.errs[i] != nil:
		t.err = m.errs[i]
	case m.objs != nil && m.objs[i] != nil:
		t.res, t.err = m.exec.(ObjExecutor).ExecuteObj(m.Names[i], m.objs[i], m.Costs[i], int(m.Sizes[i]))
	default:
		t.res, t.err = m.exec.Execute(m.Names[i], m.payloads[i], m.Costs[i], int(m.Sizes[i]))
	}
	t.elapsed = m.clock() - start
	span.End()
	t.span = span
	return t
}

// shareWall scales the compute times of tasks priced side by side, each
// measured as its own wall time, so that they sum to the wall the
// message took, as a serial loop's do. A task's Seconds, and what
// "farm.compute_seconds" and the risk engine's per-scenario seconds book,
// stay the worker's time spent on it, not counted once per overlapping
// task.
func shareWall(runs []taskRun, wall float64) {
	sum := 0.0
	for _, t := range runs {
		sum += t.elapsed
	}
	if sum <= wall {
		return
	}
	for i := range runs {
		runs[i].elapsed *= wall / sum
	}
}

// prepare decodes the message for a wide executor, each payload once:
// afterwards objs[i] is task i's problem as ExecuteObj prices it, or
// errs[i] what Execute would have failed it with. It reports whether
// some task is not instantaneous, and so worth pricing beside the others.
func (m *message) prepare(wide WideExecutor) (side bool) {
	in := m.objs
	if m.objs == nil {
		m.objs = make([]nsp.Object, len(m.Names))
	}
	for i, name := range m.Names {
		var obj nsp.Object
		if in != nil {
			obj = in[i]
		}
		ready, instant, err := wide.Prepare(name, m.payloads[i], obj)
		if err != nil {
			if m.errs == nil {
				m.errs = make([]error, len(m.Names))
			}
			m.errs[i] = err
		}
		m.objs[i], side = ready, side || !instant
	}
	return side
}

// recvPayload receives the payload list that follows an n-task
// descriptor from rank `from` and splits it into serial bytes and
// by-reference problem objects. objs is nil when every item is a serial;
// otherwise objs[i] is set, and data[i] nil, for each item that arrived
// as an object.
func recvPayload(c mpi.Comm, from, n int) (data [][]byte, objs []nsp.Object, err error) {
	pobj, _, err := mpi.RecvObj(c, from, TagPayload)
	if err != nil {
		return nil, nil, fmt.Errorf("farm: rank %d recv payload: %w", c.Rank(), err)
	}
	list, ok := pobj.(*nsp.List)
	if !ok || list.Len() != n {
		return nil, nil, fmt.Errorf("farm: rank %d: malformed payload list", c.Rank())
	}
	data = make([][]byte, n)
	for i, item := range list.Items {
		if s, ok := item.(*nsp.Serial); ok {
			data[i] = s.Data
			continue
		}
		if objs == nil {
			objs = make([]nsp.Object, n)
		}
		objs[i] = item
	}
	return data, objs, nil
}
