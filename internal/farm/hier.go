package farm

import (
	"context"
	"fmt"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// The hierarchical farm implements the improvement sketched in the
// paper's conclusion: "divide the nodes into sub-groups, each group having
// its own master ... since it has fewer slave processes to monitor the
// speedups would be better". Rank 0 is the root; ranks 1..groups are
// sub-masters; the remaining ranks are workers, split contiguously among
// the groups. The root Robin-Hoods chunks of tasks over the sub-masters,
// and each sub-master Robin-Hoods single tasks over its own workers.

// HierarchyWorkers returns the worker ranks belonging to group g
// (0-based) in a world of the given size with the given number of groups.
func HierarchyWorkers(size, groups, g int) []int {
	if groups < 1 || size < 1+2*groups {
		panic(fmt.Sprintf("farm: hierarchy needs size >= 1+2*groups, got size %d groups %d", size, groups))
	}
	nw := size - 1 - groups
	base := nw / groups
	rem := nw % groups
	start := 1 + groups
	for i := 0; i < g; i++ {
		n := base
		if i < rem {
			n++
		}
		start += n
	}
	n := base
	if g < rem {
		n++
	}
	ws := make([]int, n)
	for i := range ws {
		ws[i] = start + i
	}
	return ws
}

// RunRootMaster distributes the tasks chunk-wise over the sub-masters
// (ranks 1..groups) and returns all results: RunMaster's round with the
// sub-masters as its workers and chunk as its batch size. chunk is the
// number of tasks per sub-master hand-off. Cancellation follows
// RunMaster: drain in-flight chunks, stop the sub-masters (which stop
// their workers), return ctx.Err().
func RunRootMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options, groups, chunk int) ([]Result, error) {
	if chunk < 1 {
		chunk = 1
	}
	return runRound(ctx, c, groups, tasks, chunk, sharedQueue, loader, opts)
}

// passLoader forwards already-prepared payload bytes unchanged whatever
// the strategy — the sub-master never redoes the root's object
// construction — which is LiveLoader's serialized-load path.
type passLoader struct{}

func (passLoader) Load(t Task, _ Strategy) ([]byte, error) {
	return LiveLoader{}.Load(t, SerializedLoad)
}

// RunSubMaster receives chunks from the root, farms each chunk task-by-
// task over its own workers, and ships the chunk's results back as one
// message. Its workers are one session for its whole life, a round per
// chunk; on the root's stop message it stops them and returns.
func RunSubMaster(c mpi.Comm, workers []int, opts Options) error {
	s := newSession(c, workers, passLoader{}, sharedQueue, opts.Strategy)
	s.chunk = 1
	for {
		obj, _, err := mpi.RecvObj(c, 0, TagTask)
		if err != nil {
			return fmt.Errorf("farm: sub-master %d recv chunk: %w", c.Rank(), err)
		}
		desc, err := decodeBatch(obj)
		if err != nil {
			return err
		}
		if len(desc.Names) == 0 {
			return s.Close()
		}
		tasks := make([]Task, len(desc.Names))
		for i, name := range desc.Names {
			tasks[i] = Task{Name: name, Cost: desc.Costs[i]}
		}
		if opts.Strategy.NeedsPayload() {
			data, _, err := recvPayload(c, 0, len(tasks))
			if err != nil {
				return err
			}
			for i := range tasks {
				tasks[i].Data = data[i]
			}
		} else {
			// NFS: workers read by name; preserve declared sizes through
			// zero-filled placeholders so descriptors stay truthful.
			for i := range tasks {
				tasks[i].Data = make([]byte, int(desc.Sizes[i]))
			}
		}
		// Sub-masters are driven by the root's stop message, not by a
		// context of their own: this one only carries the chunk's trace,
		// so the group's farm.run — and every worker span under it —
		// files in the request's trace, under the chunk's first farm.task.
		ctx := context.Background()
		if desc.Trace.valid() {
			ctx = telemetry.ContextWithTrace(ctx, telemetry.TraceContext{TraceID: desc.Trace.traceID, SpanID: desc.Trace.parents[0]})
		}
		res, err := s.Run(ctx, tasks, opts)
		if err != nil {
			return err
		}
		out := nsp.NewList()
		for _, r := range res {
			out.Add(r.Value)
		}
		if err := mpi.SendObj(c, out, 0, TagResult); err != nil {
			return fmt.Errorf("farm: sub-master %d send results: %w", c.Rank(), err)
		}
	}
}
