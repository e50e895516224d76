package farm

import (
	"context"
	"fmt"
	"strconv"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// Loader abstracts the master-side preparation of a task's payload bytes
// under a payload-shipping strategy. Live loaders really decode/re-encode
// (FullLoad) or pass the sload bytes through (SerializedLoad); simulated
// loaders charge modelled CPU time instead.
type Loader interface {
	// Load returns the payload for one task. It is not called under
	// NFSLoad.
	Load(t Task, s Strategy) ([]byte, error)
}

// assignment is the dispatch loop's one policy decision: which queue an
// idle rank draws its next batch from.
type assignment int

const (
	// sharedQueue is the paper's Robin Hood: one queue, and whichever
	// rank answers first takes the next batch (retries included, so a
	// failed task usually lands on a different rank — a redeal).
	sharedQueue assignment = iota
	// perRankQueues is the static ablation baseline: batches are dealt
	// round-robin up front and a rank only ever serves its own queue, no
	// stealing — retries stay with the rank that failed them. With
	// heterogeneous task costs this strands work on slow queues, which is
	// exactly what the dynamic policy avoids.
	perRankQueues
)

// RunMaster drives the Robin-Hood farm over the given communicator (the
// paper's Fig. 4 master part): seed every worker with one batch, then feed
// whichever worker answers first, and finally send each worker the empty
// stop message. Workers are ranks 1..size-1. Results come back in
// completion order.
//
// Cancelling ctx is cooperative: the master stops dispatching new
// batches, drains the batches already in flight, stops the workers, and
// returns ctx.Err(). Transport errors remain fatal and leave the
// workers unstopped.
func RunMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options) ([]Result, error) {
	return runRound(ctx, c, c.Size()-1, tasks, opts.batchSize(), sharedQueue, loader, opts)
}

// RunStaticMaster is the ablation baseline for the Robin-Hood scheduler:
// the same round as RunMaster under the perRankQueues policy (one batch
// outstanding per worker, no stealing).
func RunStaticMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options) ([]Result, error) {
	return runRound(ctx, c, c.Size()-1, tasks, opts.batchSize(), perRankQueues, loader, opts)
}

// runRound is the one master body behind every entry point: validate the
// task list, dispatch it in batches of batch tasks over ranks 1..n under
// the given policy, then stop those ranks. On cancellation the farm is
// quiescent once runBatches returns, so the ranks are stopped before the
// context's error is reported (best effort — the transport may be part
// of what is being torn down).
func runRound(ctx context.Context, c mpi.Comm, n int, tasks []Task, batch int, policy assignment, loader Loader, opts Options) ([]Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("farm: world of size %d has no workers", c.Size())
	}
	if err := validateTasks(tasks); err != nil {
		return nil, err
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i + 1
	}
	results, err := runBatches(ctx, c, ranks, splitBatches(tasks, batch), policy, loader, opts)
	if err != nil {
		if ctx.Err() != nil {
			_ = sendStop(c, ranks)
		}
		return nil, err
	}
	if err := sendStop(c, ranks); err != nil {
		return nil, err
	}
	return results, nil
}

// validateTasks rejects duplicate task names. Names key the retry
// bookkeeping and the results, so duplicates would silently conflate
// distinct claims; every master entry point (dynamic, static and
// hierarchical root) runs this before dispatching anything.
func validateTasks(tasks []Task) error {
	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if seen[t.Name] {
			return fmt.Errorf("farm: duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// splitBatches groups tasks into batches of at most bs.
func splitBatches(tasks []Task, bs int) [][]Task {
	var batches [][]Task
	for i := 0; i < len(tasks); i += bs {
		end := i + bs
		if end > len(tasks) {
			end = len(tasks)
		}
		batches = append(batches, tasks[i:end])
	}
	return batches
}

// sendBatch ships one batch (descriptor, then payload list if the
// strategy carries payloads) to a worker, recording per-task payload
// preparation time when telemetry is on. A valid bt rides the
// descriptor so the worker can parent its spans onto the master's.
func sendBatch(c mpi.Comm, worker int, b []Task, loader Loader, opts Options, bt batchTrace) error {
	reg := opts.Telemetry
	if err := mpi.SendObj(c, encodeBatch(b, bt), worker, TagTask); err != nil {
		return fmt.Errorf("farm: send descriptor to %d: %w", worker, err)
	}
	if !opts.Strategy.NeedsPayload() {
		return nil
	}
	_, byRef := c.(mpi.ObjRefComm)
	payload := nsp.NewList()
	for _, t := range b {
		if byRef && t.Obj != nil {
			// The communicator passes objects by reference, so the problem
			// ships with no load/serialize step at all.
			payload.Add(t.Obj)
			continue
		}
		start := reg.Now()
		data, err := loader.Load(t, opts.Strategy)
		if err != nil {
			return fmt.Errorf("farm: load %q: %w", t.Name, err)
		}
		reg.Observe("farm.serialize_seconds", reg.Now()-start)
		payload.Add(&nsp.Serial{Data: data})
	}
	if err := mpi.SendObj(c, payload, worker, TagPayload); err != nil {
		return fmt.Errorf("farm: send payload to %d: %w", worker, err)
	}
	return nil
}

// workerReply is everything one result message carries: the priced
// results, the source rank, and the worker's telemetry records.
type workerReply struct {
	results []Result
	source  int
	records workerRecords
}

// recvResults receives one result list, converting worker-reported
// pricing failures into Results with Err set. Trailing span and event
// payloads are split off into the reply's records.
func recvResults(c mpi.Comm) (workerReply, error) {
	var rep workerReply
	st, err := c.Probe(mpi.AnySource, TagResult)
	if err != nil {
		return rep, fmt.Errorf("farm: probe results: %w", err)
	}
	rep.source = st.Source
	obj, _, err := mpi.RecvObj(c, st.Source, TagResult)
	if err != nil {
		return rep, fmt.Errorf("farm: recv result from %d: %w", st.Source, err)
	}
	list, ok := obj.(*nsp.List)
	if !ok {
		return rep, fmt.Errorf("farm: result from %d is %v, want list", st.Source, obj.Kind())
	}
	for _, item := range list.Items {
		if p, ok := item.(*Priced); ok {
			// The result crossed by reference: nothing to decode.
			r := Result{Name: p.Name, Worker: st.Source, Value: p}
			if p.Err != nil {
				r.Err = failedOn(p.Name, st.Source, p.Err.Error())
			}
			rep.results = append(rep.results, r)
			continue
		}
		if isRecords, err := decodeRecords(item, &rep.records); isRecords {
			if err != nil {
				return rep, err
			}
			continue
		}
		r, err := readResult(item, st.Source)
		if err != nil {
			return rep, err
		}
		rep.results = append(rep.results, r)
	}
	return rep, nil
}

// queuedBatch is one batch awaiting dispatch plus its enqueue time on
// the telemetry clock (0 when telemetry is off). retryFrom is the rank
// whose failure requeued the batch (0 = fresh dispatch); a retry landing
// on a different rank is a redeal.
type queuedBatch struct {
	tasks     []Task
	enqueued  float64
	retryFrom int
}

// pendingBatch is one batch in flight on a worker: the tasks (for retry
// matching), the clock just before and just after its sends, and the
// per-task spans to close on arrival of the results.
type pendingBatch struct {
	tasks []Task
	// sendingAt is read before the descriptor goes out, so it is no later
	// than the instant the worker receives it: the anchor for shifting
	// worker clocks. sentAt is read after the sends: the start of the
	// worker's busy time and the end of the batch's queue wait.
	sendingAt, sentAt float64
	spans             []*telemetry.Span
}

// runBatches is the farm's one dispatch loop: it deals the batches over
// the given worker ranks under the assignment policy, one batch
// outstanding per rank, without sending the final stop message, so
// callers can reuse the workers for further rounds (the sub-master
// case). Failed tasks are re-queued as single-task batches up to
// opts.MaxRetries attempts beyond the first; tasks that exhaust their
// budget are reported with Err set.
//
// When opts.Telemetry is set, every task gets a "farm.task" span
// (dispatch → results) under one "farm.run" root span, and the
// queue-wait, serialize and task-latency histograms plus the per-worker
// busy gauges are populated. Durations are read off the registry clock,
// so simulated runs record virtual seconds.
func runBatches(ctx context.Context, c mpi.Comm, workers []int, batches [][]Task, policy assignment, loader Loader, opts Options) ([]Result, error) {
	reg := opts.Telemetry
	// Adopt a distributed trace threaded through ctx (a serve request or
	// bench run); without one the run is metrics-only.
	var runSpan *telemetry.Span
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		runSpan = reg.StartSpanIn(tc, "farm.run")
	} else {
		runSpan = reg.StartSpan("farm.run")
	}
	defer runSpan.End()
	// queues[queueOf(w)] is what rank w draws from: every rank shares
	// queue 0 under sharedQueue; under perRankQueues rank workers[i] owns
	// queue i and the batches are dealt round-robin.
	queueOf := func(int) int { return 0 }
	queues := make([][]queuedBatch, 1)
	if policy == perRankQueues {
		index := make(map[int]int, len(workers))
		for i, w := range workers {
			index[w] = i
		}
		queueOf = func(w int) int { return index[w] }
		queues = make([][]queuedBatch, len(workers))
	}
	for q := range queues {
		queues[q] = make([]queuedBatch, 0, len(batches)/len(queues)+1)
	}
	now := reg.Now()
	for i, b := range batches {
		q := i % len(queues)
		queues[q] = append(queues[q], queuedBatch{tasks: b, enqueued: now})
	}
	// assigned remembers which batch each worker is busy with, so failed
	// task names can be matched back to their Task values for retry.
	assigned := make(map[int]pendingBatch, len(workers))
	attempts := make(map[string]int)
	var results []Result
	inflight := 0
	// send dispatches the head of w's queue to w; an empty queue leaves
	// the rank idle.
	send := func(w int) error {
		q := queueOf(w)
		if len(queues[q]) == 0 {
			return nil
		}
		qb := queues[q][0]
		queues[q] = queues[q][1:]
		// The per-task spans open before the send so their IDs can ride
		// the descriptor: the worker parents its farm.compute spans on
		// them.
		pb := pendingBatch{tasks: qb.tasks}
		var bt batchTrace
		if reg != nil {
			for range qb.tasks {
				pb.spans = append(pb.spans, runSpan.StartChild("farm.task"))
			}
			// Trace context rides the descriptor only when the worker
			// negotiated the spans capability: a peer that never said it
			// understands span payloads (an older build joining during a
			// rolling upgrade) gets a plain descriptor, prices it
			// identically, and ships no spans back.
			if tc := runSpan.Context(); tc.Valid() && mpi.PeerCaps(c, w).Has(mpi.CapSpans) {
				bt.traceID = tc.TraceID
				for _, sp := range pb.spans {
					bt.parents = append(bt.parents, sp.ID())
				}
			}
		}
		dispatch := runSpan.StartChild("farm.dispatch")
		pb.sendingAt = reg.Now()
		err := sendBatch(c, w, qb.tasks, loader, opts, bt)
		dispatch.End()
		if err != nil {
			return err
		}
		pb.sentAt = reg.Now()
		if reg != nil {
			wait := pb.sentAt - qb.enqueued
			for range qb.tasks {
				reg.Observe("farm.queue_wait_seconds", wait)
			}
		}
		opts.Fleet.dispatched(w, len(qb.tasks), pb.sentAt)
		if qb.retryFrom != 0 && qb.retryFrom != w {
			// The retry landed on a different worker than the one that
			// failed it: a redeal, the farm's unit of self-healing.
			opts.Fleet.taskRedealt(w)
			reg.Emit(telemetry.LevelWarn, "farm.task.redeal", runSpan.Context(),
				telemetry.Str("task", qb.tasks[0].Name),
				telemetry.Num("failed_on", float64(qb.retryFrom)),
				telemetry.Num("redealt_to", float64(w)))
		}
		assigned[w] = pb
		inflight++
		return nil
	}
	if ctx.Err() == nil {
		for _, w := range workers {
			if err := send(w); err != nil {
				return nil, err
			}
		}
	}
	for inflight > 0 {
		rep, err := recvResults(c)
		if err != nil {
			return nil, err
		}
		from := rep.source
		was := assigned[from]
		delete(assigned, from)
		inflight--
		now := reg.Now()
		busy := now - was.sentAt
		opts.Fleet.completed(from, len(was.tasks), busy, now)
		if reg != nil {
			rank := strconv.Itoa(from)
			reg.Gauge("farm.worker." + rank + ".busy_seconds").Add(busy)
			reg.Counter("farm.worker." + rank + ".tasks").Add(int64(len(was.tasks)))
			for range was.tasks {
				// Batch-mates share the round trip: the batch is the unit
				// of dispatch, so its latency is every member's latency.
				reg.Observe("farm.task_seconds", busy)
			}
			for _, sp := range was.spans {
				sp.End()
			}
			// The worker's records are on its own clock; align them by
			// mapping its descriptor-receive instant onto the instant just
			// before we sent the descriptor. The worker cannot have received
			// it earlier, so the error is one-sided: shifted records land no
			// later than they happened and a farm.compute never ends after
			// the farm.task that waited for it.
			rep.records.shift(was.sendingAt-rep.records.recvAt, from)
			reg.Ingest(rep.records.spans, rep.records.events)
		}
		for _, r := range rep.results {
			if r.Err == nil {
				reg.Counter("farm.tasks_completed").Add(1)
				results = append(results, r)
				continue
			}
			opts.Fleet.taskFailed(from)
			attempts[r.Name]++
			if attempts[r.Name] > opts.MaxRetries {
				reg.Counter("farm.task_errors").Add(1)
				reg.Emit(telemetry.LevelError, "farm.task.fail", runSpan.Context(),
					telemetry.Str("task", r.Name),
					telemetry.Num("rank", float64(from)),
					telemetry.Num("attempts", float64(attempts[r.Name])))
				results = append(results, r)
				continue
			}
			retried := false
			for _, t := range was.tasks {
				if t.Name == r.Name {
					q := queueOf(from)
					queues[q] = append(queues[q], queuedBatch{tasks: []Task{t}, enqueued: reg.Now(), retryFrom: from})
					reg.Counter("farm.retries").Add(1)
					reg.Emit(telemetry.LevelWarn, "farm.task.retry", runSpan.Context(),
						telemetry.Str("task", r.Name),
						telemetry.Num("rank", float64(from)),
						telemetry.Num("attempt", float64(attempts[r.Name])))
					retried = true
					break
				}
			}
			if !retried {
				// The batch no longer carries the task (should not
				// happen); report the failure rather than lose it.
				results = append(results, r)
			}
		}
		if ctx.Err() != nil {
			continue // cancelled: drain in-flight batches, dispatch nothing new
		}
		if err := send(from); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// sendStop sends the empty batch to each listed worker.
func sendStop(c mpi.Comm, workers []int) error {
	stop := encodeBatch(nil, batchTrace{})
	for _, w := range workers {
		if err := mpi.SendObj(c, stop, w, TagTask); err != nil {
			return fmt.Errorf("farm: send stop to %d: %w", w, err)
		}
	}
	return nil
}
