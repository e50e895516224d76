package farm

import (
	"context"
	"fmt"
	"strconv"

	"riskbench/internal/mpi"
	"riskbench/internal/telemetry"
)

// queuedBatch is one batch awaiting dispatch: its tasks, the round
// index of the first of them, and its enqueue time on the telemetry
// clock (0 when telemetry is off).
type queuedBatch struct {
	tasks    []Task
	first    int
	enqueued float64
}

// pendingBatch is one batch in flight on a worker: the round it belongs
// to (nil = the worker is idle), the tasks and the round index of the
// first, the clock just before and just after its sends, and the
// per-task spans to close on arrival of the results.
type pendingBatch struct {
	round *round
	tasks []Task
	first int
	// sendingAt is read before the descriptor goes out, so it is no later
	// than the instant the worker receives it: the anchor for shifting
	// worker clocks. sentAt is read after the sends: the start of the
	// worker's busy time and the end of the batch's queue wait.
	sendingAt, sentAt float64
	spans             []*telemetry.Span
}

// round is the dispatch state of one submitted task list. Everything the
// dispatcher keeps about a task list lives here and nowhere else, so
// rounds open at the same time share the workers and nothing more. A
// result is placed at its task's index in results; names only label.
//
// When opts.Telemetry is set, every task gets a "farm.task" span
// (dispatch → results) under the round's "farm.run" span, and the
// queue-wait, serialize and task-latency histograms plus the per-worker
// busy gauges are populated. Durations are read off the registry clock,
// so simulated runs record virtual seconds.
type round struct {
	// ctx carries the round's cancellation and the distributed trace it
	// adopts (a serve request or bench run); without one the round is
	// metrics-only.
	ctx  context.Context
	opts Options
	span *telemetry.Span // farm.run
	// queues[queueOf(w)] is what rank w draws from: every rank shares
	// queue 0 under sharedQueue; under perRankQueues rank workers[i] owns
	// queue perRank[workers[i]] = i and the batches are dealt round-robin.
	queues  [][]queuedBatch
	perRank map[int]int
	// queued and inflight count the round's batches waiting in queues and
	// out on workers; the round is over when both reach zero.
	queued, inflight int
	// results[i] is the answer to the round's task i.
	results []Result
	// cells is set on a round whose sweeps were dealt as cells (the
	// communicator carries bytes): finish folds them back into blocks.
	cells *sweepCells
	// cancelled marks a round that dispatches nothing more: its queue is
	// dropped and it ends when its in-flight batches have drained.
	cancelled bool
	// finished, err and results are final once finished is set.
	finished bool
	err      error
}

func (r *round) queueOf(w int) int {
	if r.perRank == nil {
		return 0
	}
	return r.perRank[w]
}

// dispatcher is the farm's one dispatch state machine: it deals the
// batches of its open rounds over the worker ranks, one batch
// outstanding per rank, without ever sending the stop message. It has no
// loop and blocks only in the sends of feed; its one driver, Session,
// owns the receive and calls submit, feed, onReply and cancel, one call
// at a time.
type dispatcher struct {
	c       mpi.Comm
	workers []int
	loader  Loader
	// slots[w] is the batch in flight on rank w.
	slots []pendingBatch
	// rounds are the open rounds; an idle rank draws from them in
	// rotation, starting at turn, so a one-batch round submitted behind a
	// long one is dealt within one batch time per worker.
	rounds []*round
	turn   int
	// gauges, when non-nil (a session), are published after every
	// transition.
	gauges *sessionGauges
	// ranks[w] are rank w's per-reply instruments in registry ranksReg,
	// resolved on its first reply rather than by name on every one.
	ranksReg *telemetry.Registry
	ranks    []rankInstruments
}

// rankInstruments are the instruments onReply books one rank's batches
// in.
type rankInstruments struct {
	busy  *telemetry.Gauge
	tasks *telemetry.Counter
}

// instruments returns rank w's instruments in reg, resolving them the
// first time reg sees a reply from w.
func (d *dispatcher) instruments(reg *telemetry.Registry, w int) rankInstruments {
	if d.ranksReg != reg {
		d.ranksReg, d.ranks = reg, make([]rankInstruments, len(d.slots))
	}
	if d.ranks[w].busy == nil {
		rank := strconv.Itoa(w)
		d.ranks[w] = rankInstruments{
			busy:  reg.Gauge("farm.worker." + rank + ".busy_seconds"),
			tasks: reg.Counter("farm.worker." + rank + ".tasks"),
		}
	}
	return d.ranks[w]
}

// sessionGauges are the live answer to the paper's one diagnostic, "the
// nodes are waiting for work": how many rounds are open, how many
// batches wait for a worker, and how many workers wait for a batch.
type sessionGauges struct {
	openRounds, queuedBatches, idleWorkers *telemetry.Gauge
}

func newSessionGauges(reg *telemetry.Registry) *sessionGauges {
	if reg == nil {
		return nil
	}
	return &sessionGauges{
		openRounds:    reg.Gauge("farm.session.open_rounds"),
		queuedBatches: reg.Gauge("farm.session.queued_batches"),
		idleWorkers:   reg.Gauge("farm.session.idle_workers"),
	}
}

func newDispatcher(c mpi.Comm, workers []int, loader Loader) *dispatcher {
	return &dispatcher{c: c, workers: workers, loader: loader, slots: make([]pendingBatch, c.Size())}
}

func (g *sessionGauges) set(openRounds, queuedBatches, idleWorkers int) {
	if g == nil {
		return
	}
	g.openRounds.Set(float64(openRounds))
	g.queuedBatches.Set(float64(queuedBatches))
	g.idleWorkers.Set(float64(idleWorkers))
}

// publish sets the session gauges from the dispatcher's state.
func (d *dispatcher) publish() {
	if d.gauges == nil {
		return
	}
	queued, idle := 0, 0
	for _, r := range d.rounds {
		queued += r.queued
	}
	for _, w := range d.workers {
		if d.slots[w].round == nil {
			idle++
		}
	}
	d.gauges.set(len(d.rounds), queued, idle)
}

// submit opens a round over the batches under the assignment policy.
// Nothing is sent: the driver feeds the idle ranks next. A round of no
// batches finishes here. On a communicator that carries bytes the
// round's sweeps are dealt as their cells.
func (d *dispatcher) submit(ctx context.Context, batches [][]Task, policy assignment, opts Options) *round {
	reg := opts.Telemetry
	r := &round{ctx: ctx, opts: opts}
	if !byReference(d.c) {
		batches, r.cells = expandSweeps(batches)
	}
	_, r.span = reg.Start(ctx, "farm.run", false)
	r.queues = make([][]queuedBatch, 1)
	if policy == perRankQueues {
		r.perRank = make(map[int]int, len(d.workers))
		for i, w := range d.workers {
			r.perRank[w] = i
		}
		r.queues = make([][]queuedBatch, len(d.workers))
	}
	for q := range r.queues {
		r.queues[q] = make([]queuedBatch, 0, len(batches)/len(r.queues)+1)
	}
	now := reg.Now()
	tasks := 0
	for i, b := range batches {
		q := i % len(r.queues)
		r.queues[q] = append(r.queues[q], queuedBatch{tasks: b, first: tasks, enqueued: now})
		tasks += len(b)
	}
	r.queued = len(batches)
	if tasks > 0 {
		r.results = make([]Result, tasks)
	}
	d.rounds = append(d.rounds, r)
	d.settle(r)
	d.publish()
	return r
}

// feed hands idle rank w its next batch: the head of its queue in the
// first open round, in rotation, that has one. Nothing queued leaves the
// rank idle. An error is a transport failure, fatal to every open round.
func (d *dispatcher) feed(w int) error {
	for i := range d.rounds {
		k := (d.turn + i) % len(d.rounds)
		r := d.rounds[k]
		if q := r.queueOf(w); len(r.queues[q]) > 0 {
			d.turn = k + 1
			err := d.send(r, q, w)
			d.publish()
			return err
		}
	}
	return nil
}

// send dispatches the head of r's queue q to idle rank w.
func (d *dispatcher) send(r *round, q, w int) error {
	reg, opts := r.opts.Telemetry, r.opts
	qb := r.queues[q][0]
	r.queues[q] = r.queues[q][1:]
	r.queued--
	// The per-task spans open before the send so their IDs can ride
	// the descriptor: the worker parents its farm.compute spans on
	// them.
	pb := pendingBatch{round: r, tasks: qb.tasks, first: qb.first}
	var bt batchTrace
	if reg != nil {
		pb.spans = make([]*telemetry.Span, len(qb.tasks))
		for i := range pb.spans {
			pb.spans[i] = r.span.StartChild("farm.task")
		}
		// Trace context rides the descriptor only when the worker
		// negotiated the spans capability: a peer that never said it
		// understands span payloads (an older build joining during a
		// rolling upgrade) gets a plain descriptor, prices it
		// identically, and ships no spans back.
		if tc := r.span.Context(); tc.Valid() && mpi.PeerCaps(d.c, w).Has(mpi.CapSpans) {
			bt.traceID = tc.TraceID
			bt.parents = make([]uint64, len(pb.spans))
			for i, sp := range pb.spans {
				bt.parents[i] = sp.ID()
			}
		}
	}
	dispatch := r.span.StartChild("farm.dispatch")
	pb.sendingAt = reg.Now()
	err := sendBatch(d.c, w, qb.tasks, d.loader, opts, bt)
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
	d.slots[w] = pb
	r.inflight++
	return nil
}

// onReply books one worker's answer to the round its batch belongs to:
// result j placed at the round index of the batch's task j — a failed
// task's with its Err, once, for every rank prices alike and a second
// attempt would fail the same way — and the rank idle again: the driver
// feeds it next. An answer from a rank that holds no batch, or one that
// is not one result per task of the batch, each echoing its task's name,
// is a protocol violation.
func (d *dispatcher) onReply(rep workerReply) error {
	from := rep.source
	if from < 0 || from >= len(d.slots) || d.slots[from].round == nil {
		return fmt.Errorf("farm: results from rank %d, which holds no batch", from)
	}
	was := d.slots[from]
	if len(rep.results) != len(was.tasks) {
		return fmt.Errorf("farm: rank %d answered %d results for a batch of %d tasks", from, len(rep.results), len(was.tasks))
	}
	for j, res := range rep.results {
		if res.Name != was.tasks[j].Name {
			return fmt.Errorf("farm: rank %d answered %q for task %q", from, res.Name, was.tasks[j].Name)
		}
	}
	d.slots[from] = pendingBatch{}
	r := was.round
	r.inflight--
	reg, opts := r.opts.Telemetry, r.opts
	now := reg.Now()
	busy := now - was.sentAt
	opts.Fleet.completed(from, len(was.tasks), busy, now)
	if reg != nil {
		in := d.instruments(reg, from)
		in.busy.Add(busy)
		in.tasks.Add(int64(len(was.tasks)))
		taskSeconds := reg.Histogram("farm.task_seconds")
		for range was.tasks {
			// Batch-mates share the round trip: the batch is the unit
			// of dispatch, so its latency is every member's latency.
			taskSeconds.Observe(busy)
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
	completed := int64(0)
	copy(r.results[was.first:], rep.results)
	for _, res := range rep.results {
		if res.Err == nil {
			completed++
			continue
		}
		opts.Fleet.taskFailed(from)
		reg.Counter("farm.task_errors").Add(1)
		reg.Emit(telemetry.LevelError, "farm.task.fail", r.span.Context(),
			telemetry.Str("task", res.Name),
			telemetry.Num("rank", float64(from)))
	}
	if completed > 0 {
		reg.Counter("farm.tasks_completed").Add(completed)
	}
	if r.cancelled {
		r.drop()
	}
	d.settle(r)
	d.publish()
	return nil
}

// drop empties the round's queues: whatever waited there is never sent.
func (r *round) drop() {
	for q := range r.queues {
		r.queues[q] = nil
	}
	r.queued = 0
}

// cancel stops dispatching for r — cooperatively: the batches already in
// flight drain, and the round then ends with its context's error. A
// finished round is left alone.
func (d *dispatcher) cancel(r *round) {
	if r.finished {
		return
	}
	r.cancelled = true
	r.drop()
	d.settle(r)
	d.publish()
}

// settle finishes r once it has nothing queued and nothing in flight.
func (d *dispatcher) settle(r *round) {
	if !r.finished && r.queued == 0 && r.inflight == 0 {
		d.finish(r, nil)
	}
}

// finish closes r with err, or with its context's error when that is
// what cut it short (a cancelled round reports ctx.Err() even when its
// last batch came home), and takes it off the open list. Its in-flight
// batches, if any, stay booked on their ranks: only a dispatcher that is
// itself being abandoned finishes a round early.
func (d *dispatcher) finish(r *round, err error) {
	if r.finished {
		return
	}
	if err == nil {
		err = r.ctx.Err()
	}
	if err == nil && r.cells != nil {
		r.results, err = r.cells.fold(r.results)
	}
	if err != nil {
		r.results = nil
	}
	r.finished, r.err = true, err
	r.span.End()
	for i, open := range d.rounds {
		if open == r {
			d.rounds = append(d.rounds[:i], d.rounds[i+1:]...)
			if d.turn > i {
				d.turn--
			}
			break
		}
	}
}
