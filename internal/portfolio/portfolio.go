package portfolio

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"riskbench/internal/farm"
	"riskbench/internal/mathutil"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
)

// Item is one claim of a portfolio: a real pricing problem plus the
// virtual compute cost the cluster simulator replays for it.
type Item struct {
	// Name identifies the claim; it doubles as its "file name" in the
	// communication strategies.
	Name string
	// Problem is the fully-parameterised pricing problem.
	Problem *premia.Problem
	// Cost is the claim's virtual pricing time in seconds.
	Cost float64
}

// Portfolio is a named collection of claims.
type Portfolio struct {
	// Name labels the workload ("regression", "toy", "realistic").
	Name string
	// Items are the claims in generation order.
	Items []Item
}

// Size returns the number of claims.
func (pf *Portfolio) Size() int { return len(pf.Items) }

// TotalCost returns the sum of virtual costs — the total work a 1-worker
// run performs, the paper's 2-CPU baseline.
func (pf *Portfolio) TotalCost() float64 {
	sum := 0.0
	for _, it := range pf.Items {
		sum += it.Cost
	}
	return sum
}

// MaxCost returns the most expensive claim's virtual cost, the lower
// bound on any parallel makespan.
func (pf *Portfolio) MaxCost() float64 {
	m := 0.0
	for _, it := range pf.Items {
		if it.Cost > m {
			m = it.Cost
		}
	}
	return m
}

// Tasks serializes every claim into a farm task (the save-file bytes plus
// the virtual cost).
func (pf *Portfolio) Tasks() ([]farm.Task, error) {
	tasks := make([]farm.Task, len(pf.Items))
	for i, it := range pf.Items {
		h, err := it.Problem.ToNsp()
		if err != nil {
			return nil, fmt.Errorf("portfolio: %s: %w", it.Name, err)
		}
		s, err := nsp.Serialize(h)
		if err != nil {
			return nil, fmt.Errorf("portfolio: %s: %w", it.Name, err)
		}
		tasks[i] = farm.Task{Name: it.Name, Data: s.Data, Cost: it.Cost}
	}
	return tasks, nil
}

// SaveDir writes every claim to dir as an nsp save file named after the
// claim, the on-disk portfolio representation the paper uses ("a
// portfolio will be a collection of files"). It returns the file paths.
//
//lint:allow testonly the NFS integration test builds its on-disk book with it
func (pf *Portfolio) SaveDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("portfolio: %w", err)
	}
	paths := make([]string, len(pf.Items))
	for i, it := range pf.Items {
		p := filepath.Join(dir, it.Name+".bin")
		if err := it.Problem.Save(p); err != nil {
			return nil, err
		}
		paths[i] = p
	}
	return paths, nil
}

// jitter returns a deterministic lognormal factor with unit mean and the
// given log-volatility, so equal-class tasks spread realistically without
// breaking reproducibility.
func jitter(rng *mathutil.RNG, sigma float64) float64 {
	return math.Exp(sigma*rng.Norm() - 0.5*sigma*sigma)
}
