package varisk

import (
	"context"
	"fmt"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/risk"
)

// SimTasks expands the nested-simulation workload — outer market
// scenarios × inner per-claim repricings — into the one flat farm batch
// the master actually schedules: outer copies of every claim, named
// "o%05d/<claim>". This is the simulator-facing shape (the riskbench
// -varsim sweeps): payload bytes and virtual costs are shared across
// the outer copies, so a million-task batch costs one serialization
// pass over the portfolio, not outer of them. The live estimators don't
// use it — FullReval builds real shifted problems through
// risk.RevalueContext instead — but the scheduling traffic is
// identical, which is the point of simulating it.
func SimTasks(pf *portfolio.Portfolio, outer int) ([]farm.Task, error) {
	if outer < 1 {
		return nil, fmt.Errorf("varisk: need at least 1 outer scenario, got %d", outer)
	}
	base, err := pf.Tasks()
	if err != nil {
		return nil, err
	}
	out := make([]farm.Task, 0, outer*len(base))
	for o := 0; o < outer; o++ {
		for _, t := range base {
			out = append(out, farm.Task{
				Name: fmt.Sprintf("o%05d/%s", o+1, t.Name),
				Data: t.Data, // shared across outer copies by design
				Cost: t.Cost,
			})
		}
	}
	return out, nil
}

// HierBackend is a risk.FarmBackend that prices each round over the
// paper's hierarchical topology on an in-process world: a root master
// (farm.RunRootMaster) hands task chunks to Groups sub-masters, each
// Robin-Hood-farming its own worker group. Plugging it into
// risk.Engine.Backend runs the whole VaR revaluation — the outer×inner
// nested batch included — through the hierarchical path with live
// pricing, which is how the estimator tests exercise RunRootMaster
// outside the simulator.
type HierBackend struct {
	// Groups is the sub-master count (default 2).
	Groups int
	// Chunk is the root→sub-master hand-off size in tasks (default 8).
	Chunk int
}

// Run implements risk.FarmBackend. The nw workers are spread over the
// groups per farm.HierarchyWorkers; nw must be at least Groups so every
// sub-master has a worker. Cancellation closes the local world, which
// unblocks every rank.
func (b HierBackend) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, nw int) ([]farm.Result, error) {
	groups := b.Groups
	if groups < 1 {
		groups = 2
	}
	chunk := b.Chunk
	if chunk < 1 {
		chunk = 8
	}
	if nw < groups {
		nw = groups
	}
	return farm.Local{Groups: groups, Chunk: chunk}.Run(ctx, tasks, opts, nw)
}

// assert the seam at compile time.
var _ risk.FarmBackend = HierBackend{}
