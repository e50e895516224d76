package farm

import (
	"context"
	"fmt"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
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
	// rank answers first takes the next batch.
	sharedQueue assignment = iota
	// perRankQueues is the static ablation baseline: batches are dealt
	// round-robin up front and a rank only ever serves its own queue, no
	// stealing. With heterogeneous task costs this strands work on slow
	// queues, which is exactly what the dynamic policy avoids.
	perRankQueues
)

// RunMaster drives the Robin-Hood farm over the given communicator (the
// paper's Fig. 4 master part): seed every worker with one batch, then feed
// whichever worker answers first, and finally send each worker the empty
// stop message: one round of a Session over ranks 1..size-1, which
// leaves c to the caller. Results come back in task order, whichever
// worker answered first.
//
// Cancelling ctx is cooperative: the master stops dispatching new
// batches, drains the batches already in flight, stops the workers, and
// returns ctx.Err(), also when ctx is done before anything is
// dispatched. Transport errors, and a worker's reply that does not
// answer its batch task for task, remain fatal and leave the workers
// unstopped.
func RunMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options) ([]Result, error) {
	return runRound(ctx, c, c.Size()-1, tasks, opts.batchSize(), sharedQueue, loader, opts)
}

// RunStaticMaster is the ablation baseline for the Robin-Hood scheduler:
// the same round as RunMaster under the perRankQueues policy (one batch
// outstanding per worker, no stealing).
func RunStaticMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options) ([]Result, error) {
	return runRound(ctx, c, c.Size()-1, tasks, opts.batchSize(), perRankQueues, loader, opts)
}

// runRound is the one master body behind every entry point: one round
// of a session over ranks 1..n of c, in batches of batch tasks, then the
// stop message (best effort after a cancelled round, none after a
// transport failure). The session neither closes c nor publishes gauges.
func runRound(ctx context.Context, c mpi.Comm, n int, tasks []Task, batch int, policy assignment, loader Loader, opts Options) ([]Result, error) {
	ranks, err := workerRanks(c, n)
	if err != nil {
		return nil, err
	}
	s := newSession(c, ranks, loader, policy, opts.Strategy)
	s.chunk = batch
	return s.RunOnce(ctx, tasks, opts)
}

// workerRanks lists ranks 1..n of c, the ranks a flat master drives.
func workerRanks(c mpi.Comm, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("farm: world of size %d has no workers", c.Size())
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return ranks, nil
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

// byReference reports whether c hands task objects and results across as
// themselves — the farm's one seam between objects and bytes. On the
// bytes side sendBatch serializes each task's object through the loader,
// and a round's sweeps are dealt as their cells (expandSweeps).
func byReference(c mpi.Comm) bool {
	_, ok := c.(mpi.ObjRefComm)
	return ok
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
	byRef := byReference(c)
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
		// A result that crossed by reference: nothing to decode.
		switch p := item.(type) {
		case *Priced:
			r := Result{Name: p.Name, Worker: st.Source, Value: p}
			if p.Err != nil {
				r.Err = failedOn(p.Name, st.Source, p.Err.Error())
			}
			rep.results = append(rep.results, r)
			continue
		case *PricedBlock:
			rep.results = append(rep.results, Result{Name: p.Name, Worker: st.Source, Value: p})
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
