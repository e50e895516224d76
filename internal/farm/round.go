package farm

import (
	"context"
	"fmt"
	"sync"

	"riskbench/internal/mpi"
)

// Role is one rank's part in a farm round.
type Role struct {
	// Rank is the role's own rank in the world.
	Rank int
	// Master is the rank this role answers to: 0 for the ranks the root
	// drives, a sub-master's rank for the workers of its group. Rank 0
	// answers to nobody.
	Master int
	// Workers are the ranks this role drives — the root's workers or
	// sub-masters, a sub-master's worker group. Nil marks a worker.
	Workers []int
}

// Layout assigns every rank of a size-rank world its role, indexed by
// rank. groups = 0 is the paper's flat farm: rank 0 masters ranks
// 1..size-1. groups >= 1 is the hierarchy of its conclusion: rank 0 is
// the root, ranks 1..groups are sub-masters, and the remaining ranks are
// workers split contiguously among the groups (HierarchyWorkers), which
// needs at least one worker per group.
func Layout(size, groups int) ([]Role, error) {
	if groups < 0 || size < 2 || size < 1+2*groups {
		return nil, fmt.Errorf("farm: no layout for %d ranks in %d groups", size, groups)
	}
	roles := make([]Role, size)
	for r := range roles {
		roles[r].Rank = r
	}
	if groups == 0 {
		roles[0].Workers = make([]int, size-1)
		for i := range roles[0].Workers {
			roles[0].Workers[i] = i + 1
		}
		return roles, nil
	}
	for g := 0; g < groups; g++ {
		sub := g + 1
		roles[0].Workers = append(roles[0].Workers, sub)
		roles[sub].Workers = HierarchyWorkers(size, groups, g)
		for _, w := range roles[sub].Workers {
			roles[w].Master = sub
		}
	}
	return roles, nil
}

// Serve plays a non-root role until its master's stop message: a
// sub-master farms the root's chunks over its group (exec and store are
// its workers' business, not its own), a worker prices batches for its
// master.
func (r Role) Serve(c mpi.Comm, exec Executor, store Store, opts Options) error {
	if r.Workers != nil {
		return RunSubMaster(c, r.Workers, opts)
	}
	opts.MasterRank = r.Master
	return RunWorker(c, exec, store, opts)
}

// Local runs farm rounds in process: every rank of the Layout is a
// goroutine on one mpi.LocalWorld built for the round, sharing the
// caller's telemetry registry. It is the one place the in-process rank
// choreography lives; the risk engine's backends, the CLIs and the
// examples all run their goroutine farms through it.
type Local struct {
	// Exec prices tasks on the worker ranks (nil = LiveExecutor).
	Exec Executor
	// Store is the shared store workers read under NFSLoad.
	Store Store
	// Groups is the number of sub-masters; 0 runs the flat farm.
	Groups int
	// Chunk is the root→sub-master hand-off size when Groups > 0.
	Chunk int
}

// Run farms one round of tasks over `workers` worker ranks (plus
// l.Groups sub-masters, each of which gets at least one worker) and
// returns the results in completion order.
//
// The world is closed — unblocking every rank — when ctx is cancelled or
// as soon as any rank fails, and Run joins every rank before it returns
// on every path. A cancelled round reports ctx.Err(); otherwise the
// first failure is reported with its rank, so a worker that dies of its
// own error is not masked by the mpi.ErrClosed it causes elsewhere.
func (l Local) Run(ctx context.Context, tasks []Task, opts Options, workers int) ([]Result, error) {
	roles, err := Layout(1+l.Groups+max(workers, l.Groups), l.Groups)
	if err != nil {
		return nil, err
	}
	exec := l.Exec
	if exec == nil {
		exec = LiveExecutor{}
	}
	world := mpi.NewLocalWorld(len(roles))
	defer world.Close()
	stopCancel := context.AfterFunc(ctx, world.Close)
	defer stopCancel()
	var (
		failOnce sync.Once
		cause    error
	)
	fail := func(rank int, err error) {
		failOnce.Do(func() {
			cause = fmt.Errorf("farm: rank %d: %w", rank, err)
			world.Close()
		})
	}
	opts.LocalSpans = true // every rank shares the caller's registry
	var wg sync.WaitGroup
	for _, role := range roles[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := role.Serve(world.Comm(role.Rank), exec, l.Store, opts); err != nil {
				fail(role.Rank, err)
			}
		}()
	}
	var results []Result
	if l.Groups == 0 {
		results, err = RunMaster(ctx, world.Comm(0), tasks, LiveLoader{}, opts)
	} else {
		results, err = RunRootMaster(ctx, world.Comm(0), tasks, LiveLoader{}, opts, l.Groups, l.Chunk)
	}
	if err != nil {
		fail(0, err)
	}
	wg.Wait()
	if cause != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, cause
	}
	return results, nil
}
