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

// Local runs flat farm rounds in process: every rank is a goroutine on
// one mpi.LocalWorld, sharing the caller's telemetry registry. It is the
// one place the in-process rank choreography lives; the risk engine's
// backends, the CLIs and the examples all run their goroutine farms
// through it — standing (Open) or one round at a time (Run).
type Local struct {
	// Exec prices tasks on the worker ranks (nil = LiveExecutor).
	//lint:allow testonly the seam the farm's failure tests plug fake executors into
	Exec Executor
	// Store is the shared store workers read under NFSLoad.
	Store Store
}

// Open builds a world of `workers` worker ranks, starts every rank but
// the root as a goroutine serving under opts — strategy and registry are
// fixed here — and returns the session mastering them.
//
// A rank that fails ends the session with its error and its rank: the
// world is closed under the others, and every open round reports that
// first failure rather than the mpi.ErrClosed it causes elsewhere.
//
//lint:allow ctxflow the ranks live until Session.Close; each round's context arrives with Session.Run
func (l Local) Open(opts Options, workers int) (*Session, error) {
	roles, err := Layout(1+workers, 0)
	if err != nil {
		return nil, err
	}
	exec := l.Exec
	if exec == nil {
		exec = LiveExecutor{}
	}
	world := mpi.NewLocalWorld(len(roles))
	opts.LocalSpans = true // every rank shares the caller's registry
	s := newSession(world.Comm(0), roles[0].Workers, LiveLoader{}, sharedQueue, opts.Strategy)
	s.publishTo(opts.Telemetry)
	var wg sync.WaitGroup
	s.abort = world.Close
	s.join = func() error { wg.Wait(); return nil }
	for _, role := range roles[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := role.Serve(world.Comm(role.Rank), exec, l.Store, opts); err != nil {
				s.fail(fmt.Errorf("farm: rank %d: %w", role.Rank, err))
			}
		}()
	}
	return s, nil
}

// Run farms one round of tasks over a session opened for it and closed
// behind it, and returns the results in task order. Every rank is
// joined before it returns, on every path. A cancelled round reports
// ctx.Err(); otherwise the first failure is reported with its rank.
func (l Local) Run(ctx context.Context, tasks []Task, opts Options, workers int) ([]Result, error) {
	s, err := l.Open(opts, workers)
	if err != nil {
		return nil, err
	}
	return s.RunOnce(ctx, tasks, opts)
}
