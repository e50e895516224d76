package farm

import (
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/simnet"
)

// SimCosts are the virtual CPU costs of the strategy-dependent software
// paths, calibrated so the simulated Table II reproduces the paper's
// shape: full-load pays an object construction round on the master that
// serialized-load avoids, and every strategy pays a small per-task
// orchestration cost at both ends.
type SimCosts struct {
	// FullLoadFixed + FullLoadPerByte·size is the master's cost to read a
	// file, build the object and re-serialise it (the "full load" column).
	FullLoadFixed   float64
	FullLoadPerByte float64
	// SLoadFixed + SLoadPerByte·size is the master's cost of the direct
	// file→serial path ("serialized load").
	SLoadFixed   float64
	SLoadPerByte float64
	// UnpackFixed + UnpackPerByte·size is the worker's cost to unpack and
	// rebuild the problem before pricing.
	UnpackFixed   float64
	UnpackPerByte float64
}

// DefaultSimCosts is calibrated against the paper's Table II (10,000
// closed-form vanillas): the serialized-load column flattens near the
// master's ≈0.18 ms/task occupancy, the full-load column near ≈0.4 ms,
// and NFS near ≈0.08 ms once the cache is warm.
var DefaultSimCosts = SimCosts{
	FullLoadFixed:   120e-6,
	FullLoadPerByte: 300e-9,
	SLoadFixed:      45e-6,
	SLoadPerByte:    30e-9,
	UnpackFixed:     80e-6,
	UnpackPerByte:   150e-9,
}

// SimLoader charges the master's strategy-dependent virtual CPU time and
// passes the real problem bytes through so wire sizes stay faithful.
type SimLoader struct {
	// Comm is the master's simulated communicator (provides Compute).
	Comm *simnet.Comm
	// Costs is the cost model (DefaultSimCosts if zero-valued fields are
	// acceptable to the caller).
	Costs SimCosts
}

// Load implements Loader.
func (l SimLoader) Load(t Task, s Strategy) ([]byte, error) {
	n := float64(len(t.Data))
	switch s {
	case FullLoad:
		l.Comm.Compute(l.Costs.FullLoadFixed + l.Costs.FullLoadPerByte*n)
	case SerializedLoad:
		l.Comm.Compute(l.Costs.SLoadFixed + l.Costs.SLoadPerByte*n)
	}
	return t.Data, nil
}

// SimExecutor advances the worker's virtual clock by the task's declared
// cost plus the unpack overhead, instead of really pricing.
type SimExecutor struct {
	// Comm is this worker's simulated communicator.
	Comm *simnet.Comm
	// Costs is the cost model shared with the master.
	Costs SimCosts
}

// Execute implements Executor.
func (e SimExecutor) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	e.Comm.Compute(e.Costs.UnpackFixed + e.Costs.UnpackPerByte*float64(size) + cost)
	return &Priced{Name: name, Result: premia.Result{Work: cost}}, nil
}

// SimStore models the shared NFS mount: reads charge the simnet NFS model
// on this worker's node and return no bytes (simulated executors do not
// look at payloads).
type SimStore struct {
	// FS is the simulated file system shared by all workers of a run.
	FS *simnet.NFS
	// Comm identifies the node (rank) doing the reads.
	Comm *simnet.Comm
}

// Read implements Store.
func (s SimStore) Read(name string, size int) ([]byte, error) {
	s.FS.Read(s.Comm.Proc(), s.Comm.Rank(), name, size)
	return nil, nil
}
