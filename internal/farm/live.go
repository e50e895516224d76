package farm

import (
	"fmt"
	"os"

	"riskbench/internal/nsp"
	"riskbench/internal/premia"
)

// LiveLoader prepares payloads with real CPU work, matching the paper's
// description of each strategy on the master.
type LiveLoader struct{}

// Load implements Loader. FullLoad performs the complete round — decode
// the save-file stream into an object, then re-serialise it — whose cost
// the serialized-load strategy exists to avoid; SerializedLoad is the
// sload path that ships the file bytes untouched. An object-only task
// (Obj set, no Data) reaching the loader means the communicator cannot
// pass references, so the object is serialized here as the wire
// fallback.
func (LiveLoader) Load(t Task, s Strategy) ([]byte, error) {
	if t.Data == nil && t.Obj != nil {
		ser, err := nsp.Serialize(t.Obj)
		if err != nil {
			return nil, fmt.Errorf("farm: serialize task object: %w", err)
		}
		return ser.Data, nil
	}
	switch s {
	case FullLoad:
		obj, err := nsp.SLoadBytes(t.Data).Unserialize()
		if err != nil {
			return nil, fmt.Errorf("farm: full load decode: %w", err)
		}
		ser, err := nsp.Serialize(obj)
		if err != nil {
			return nil, fmt.Errorf("farm: full load encode: %w", err)
		}
		return ser.Data, nil
	case SerializedLoad:
		return t.Data, nil
	default:
		return nil, fmt.Errorf("farm: loader asked for strategy %v", s)
	}
}

// LiveExecutor prices tasks for real with the premia library. It is the
// one WideExecutor: a message of several tasks, not all instantaneous,
// prices side by side at premia's process kernel width.
type LiveExecutor struct{}

// Execute implements Executor: unserialize → rebuild the problem →
// compute → *Priced. The executor does not read a clock; RunWorker
// measures the call on the registry clock and stamps the elapsed
// compute time into the result's Seconds, so masters can attribute
// timing to task groups (the risk engine's per-scenario report reads
// it) and simulated runs attribute virtual seconds.
func (e LiveExecutor) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	obj, _, err := e.Prepare(name, payload, nil)
	if err != nil {
		return nil, err
	}
	return e.ExecuteObj(name, obj, cost, size)
}

// ExecuteObj implements ObjExecutor: the problem arrived as an object,
// so pricing skips the decode pass. A *premia.Problem is computed as it
// stands; the hash a problem travels as (what Execute decodes, or a
// caller shipped by reference) is rebuilt first. A *premia.Sweep is
// priced cell by cell into a *PricedBlock, a failed cell reported in the
// block rather than as the task's failure.
func (LiveExecutor) ExecuteObj(name string, obj nsp.Object, cost float64, size int) (nsp.Object, error) {
	obj, err := rebuildProblem(name, obj)
	if err != nil {
		return nil, err
	}
	if sw, ok := obj.(*premia.Sweep); ok {
		results, errs := sw.Compute()
		return &PricedBlock{Name: name, Results: results, Errs: errs}, nil
	}
	res, err := obj.(*premia.Problem).Compute()
	if err != nil {
		return nil, fmt.Errorf("farm: compute %q: %w", name, err)
	}
	return &Priced{Name: name, Result: res}, nil
}

// Prepare implements WideExecutor: a payload is decoded and a hash
// rebuilt, so what it returns is the *premia.Problem or *premia.Sweep
// ExecuteObj computes as it stands, and instant is premia.Instantaneous
// of its method — the test the risk engine bunches on.
func (LiveExecutor) Prepare(name string, payload []byte, obj nsp.Object) (ready nsp.Object, instant bool, err error) {
	if obj == nil {
		if obj, err = nsp.SLoadBytes(payload).Unserialize(); err != nil {
			return nil, false, fmt.Errorf("farm: decode problem %q: %w", name, err)
		}
	}
	if obj, err = rebuildProblem(name, obj); err != nil {
		return nil, false, err
	}
	if sw, ok := obj.(*premia.Sweep); ok {
		return sw, premia.Instantaneous(sw.Base.Method), nil
	}
	return obj, premia.Instantaneous(obj.(*premia.Problem).Method), nil
}

// SideBySide implements WideExecutor at premia's process kernel width
// (SetKernelThreads), the cores riskserver gives each worker.
func (LiveExecutor) SideBySide(n int, price func(i int)) { premia.SideBySide(n, price) }

// rebuildProblem returns a *premia.Problem or *premia.Sweep as it stands
// and rebuilds the problem any other object — the hash a problem travels
// as — carries.
func rebuildProblem(name string, obj nsp.Object) (nsp.Object, error) {
	switch obj.(type) {
	case *premia.Problem, *premia.Sweep:
		return obj, nil
	}
	p, err := premia.FromNsp(obj)
	if err != nil {
		return nil, fmt.Errorf("farm: rebuild problem %q: %w", name, err)
	}
	return p, nil
}

// FileStore reads problem files from the real file system (the live
// counterpart of the cluster's NFS mount).
type FileStore struct{}

// Read implements Store.
func (FileStore) Read(name string, size int) ([]byte, error) {
	return os.ReadFile(name)
}

// MemStore serves problem bytes from memory; examples and tests use it as
// a stand-in shared file system without touching disk.
type MemStore map[string][]byte

// Read implements Store.
func (m MemStore) Read(name string, size int) ([]byte, error) {
	data, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("farm: memstore: no file %q", name)
	}
	return data, nil
}
