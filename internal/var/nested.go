package varisk

import (
	"fmt"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
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
