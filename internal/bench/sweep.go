package bench

import (
	"context"
	"fmt"

	"riskbench/internal/farm"
	"riskbench/internal/simnet"
	"riskbench/internal/telemetry"
)

// Scheduler selects the master's task-distribution policy.
type Scheduler int

// Available schedulers.
const (
	// RobinHood is the paper's dynamic first-come-first-served policy.
	RobinHood Scheduler = iota
	// StaticBlock pre-assigns tasks round-robin (ablation baseline).
	StaticBlock
	// Hierarchical uses sub-masters (the paper's proposed improvement).
	Hierarchical
)

// String returns a printable name.
func (s Scheduler) String() string {
	switch s {
	case RobinHood:
		return "robin-hood"
	case StaticBlock:
		return "static"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// RunConfig describes one simulated farm execution.
type RunConfig struct {
	// Tasks is the workload.
	Tasks []farm.Task
	// CPUs is the paper's CPU count: 1 master + (CPUs-1) workers.
	CPUs int
	// Strategy is the communication strategy.
	Strategy farm.Strategy
	// BatchSize groups tasks per message (default 1).
	BatchSize int
	// Scheduler selects the distribution policy (default RobinHood).
	Scheduler Scheduler
	// Groups is the number of sub-masters when Scheduler is Hierarchical.
	Groups int
	// Chunk is the root→sub-master hand-off size when hierarchical.
	Chunk int
	// Link models the interconnect (DefaultGigE if zero).
	Link simnet.LinkConfig
	// Costs models the strategy CPU costs (DefaultSimCosts if zero).
	Costs farm.SimCosts
	// FS is the shared NFS model; required for the NFS strategy. Reusing
	// one FS across runs keeps its cache warm, reproducing the paper's
	// biased repeat-run numbers.
	FS *simnet.NFS
	// SlowFraction marks that fraction of the workers (the highest ranks)
	// as slow nodes running at SlowFactor speed, modelling cluster
	// heterogeneity/background load.
	SlowFraction float64
	// SlowFactor is the slow nodes' relative speed (default 0.5 when
	// SlowFraction > 0).
	SlowFactor float64
	// Telemetry, when non-nil, receives the farm's per-task metrics for
	// this run. The registry's clock is bound to the simulation's
	// virtual clock for the duration of the run, so histograms and
	// spans measure virtual seconds; reuse one registry per run, not
	// across concurrent runs.
	Telemetry *telemetry.Registry
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Link == (simnet.LinkConfig{}) {
		rc.Link = simnet.DefaultGigE
	}
	if rc.Costs == (farm.SimCosts{}) {
		rc.Costs = farm.DefaultSimCosts
	}
	if rc.BatchSize < 1 {
		rc.BatchSize = 1
	}
	return rc
}

// Run executes one simulated farm run and returns the virtual makespan in
// seconds. Cancelling ctx stops the master from dispatching further
// batches; the run then winds down cleanly and Run returns the context's
// error.
func Run(ctx context.Context, rc RunConfig) (float64, error) {
	t, _, err := runSim(ctx, rc)
	return t, err
}

// RunStats augments a flat run's makespan with occupancy figures, the
// measurements behind the "many nodes are waiting for some more work to
// do" diagnosis in the paper's §4.3.
type RunStats struct {
	// Makespan is the virtual completion time in seconds.
	Makespan float64
	// MasterBusy is the master's compute-occupied time (payload
	// preparation), the serial bottleneck of Table II.
	MasterBusy float64
	// WorkerUtilization is each worker's busy fraction of the makespan.
	WorkerUtilization []float64
	// MeanUtilization averages WorkerUtilization.
	MeanUtilization float64
}

// RunWithStats is Run for flat schedulers, additionally reporting
// occupancy statistics.
func RunWithStats(ctx context.Context, rc RunConfig) (RunStats, error) {
	if rc.Scheduler == Hierarchical {
		return RunStats{}, fmt.Errorf("bench: RunWithStats supports flat schedulers only")
	}
	t, world, err := runSim(ctx, rc)
	if err != nil {
		return RunStats{}, err
	}
	stats := RunStats{Makespan: t, MasterBusy: world.BusyTime(0)}
	sum := 0.0
	for r := 1; r < rc.CPUs; r++ {
		u := world.Utilization(r)
		stats.WorkerUtilization = append(stats.WorkerUtilization, u)
		sum += u
	}
	if n := len(stats.WorkerUtilization); n > 0 {
		stats.MeanUtilization = sum / float64(n)
	}
	return stats, nil
}

// applySlowNodes marks the top-ranked workers slow per the config.
func applySlowNodes(world *simnet.World, rc RunConfig) {
	if rc.SlowFraction <= 0 {
		return
	}
	factor := rc.SlowFactor
	if factor <= 0 {
		factor = 0.5
	}
	workers := rc.CPUs - 1
	slow := int(rc.SlowFraction * float64(workers))
	for i := 0; i < slow; i++ {
		world.SetSpeed(rc.CPUs-1-i, factor)
	}
}

// runSim is the one simulated runner: it lays the ranks out with
// farm.Layout (flat, or Groups sub-masters under the Hierarchical
// scheduler), runs every role as a simnet process and the scheduler's
// master on rank 0, and returns the virtual makespan with the world for
// occupancy queries.
func runSim(ctx context.Context, rc RunConfig) (float64, *simnet.World, error) {
	rc = rc.withDefaults()
	if rc.CPUs < 2 {
		return 0, nil, fmt.Errorf("bench: need at least 2 CPUs, got %d", rc.CPUs)
	}
	if rc.Strategy == farm.NFSLoad && rc.FS == nil {
		return 0, nil, fmt.Errorf("bench: NFS strategy needs an FS model")
	}
	groups, chunk := 0, rc.Chunk
	if rc.Scheduler == Hierarchical {
		if groups = rc.Groups; groups < 1 {
			groups = 4
		}
		if chunk < 1 {
			chunk = 8
		}
	}
	roles, err := farm.Layout(rc.CPUs, groups)
	if err != nil {
		return 0, nil, fmt.Errorf("bench: %d CPUs too few for %d groups", rc.CPUs, groups)
	}
	if rc.FS != nil {
		// A reused FS keeps its client caches warm across runs, but its
		// server queue must restart on this run's fresh virtual clock.
		rc.FS.ResetClock()
	}
	eng := simnet.NewEngine()
	world := simnet.NewWorld(eng, rc.CPUs, rc.Link)
	applySlowNodes(world, rc)
	if rc.Telemetry != nil {
		// Farm durations and spans must be virtual seconds, not wall
		// time: bind the registry to the simulation clock.
		rc.Telemetry.SetClock(eng.Now)
	}
	opts := farm.Options{Strategy: rc.Strategy, BatchSize: rc.BatchSize, Telemetry: rc.Telemetry}
	errs := make([]error, rc.CPUs)
	for _, role := range roles[1:] {
		world.Go(role.Rank, fmt.Sprintf("rank-%d", role.Rank), func(c *simnet.Comm) {
			var store farm.Store
			if rc.FS != nil {
				store = farm.SimStore{FS: rc.FS, Comm: c}
			}
			errs[role.Rank] = role.Serve(c, farm.SimExecutor{Comm: c, Costs: rc.Costs}, store, opts)
		})
	}
	world.Go(0, "master", func(c *simnet.Comm) {
		loader := farm.SimLoader{Comm: c, Costs: rc.Costs}
		switch rc.Scheduler {
		case Hierarchical:
			_, errs[0] = farm.RunRootMaster(ctx, c, rc.Tasks, loader, opts, groups, chunk)
		case StaticBlock:
			_, errs[0] = farm.RunStaticMaster(ctx, c, rc.Tasks, loader, opts)
		default:
			_, errs[0] = farm.RunMaster(ctx, c, rc.Tasks, loader, opts)
		}
	})
	// A cancelled master stops its workers, so cancellation surfaces as
	// rank 0's error below, not as a deadlock.
	if err := eng.Run(); err != nil {
		return 0, nil, err
	}
	for rank, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("bench: rank %d: %w", rank, err)
		}
	}
	return eng.Now(), world, nil
}
