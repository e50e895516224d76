package farm

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// serializeHash returns the nsp stream bytes of a hash, i.e. the content
// a problem save-file would hold.
func serializeHash(h *nsp.Hash) ([]byte, error) {
	s, err := nsp.Serialize(h)
	if err != nil {
		return nil, err
	}
	return s.Data, nil
}

// testResult is what a stub executor answers: a priced result of one
// unit of work.
func testResult(name string, price float64) *Priced {
	return &Priced{Name: name, Result: premia.Result{Price: price, Work: 1}}
}

// wireResult is testResult as the hash it crosses a wire as.
func wireResult(t *testing.T, name string, price float64) nsp.Object {
	t.Helper()
	h, err := testResult(name, price).WireForm()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// priceOf reads the price of a collected result, typed or hash.
func priceOf(r Result) (float64, bool) {
	p, err := AsPriced(r)
	if err != nil || p.Err != nil {
		return 0, false
	}
	return p.Result.Price, true
}

// makePortfolio builds n distinct vanilla call problems and returns the
// tasks plus the closed-form price of each, keyed by name.
func makePortfolio(t *testing.T, n int) ([]Task, map[string]float64) {
	t.Helper()
	tasks := make([]Task, n)
	want := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := 80 + float64(i%40)
		p := premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
			Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", k).Set("T", 1+float64(i%8)/4)
		h, err := p.ToNsp()
		if err != nil {
			t.Fatal(err)
		}
		s, err := serializeHash(h)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("pb-%04d", i)
		tasks[i] = Task{Name: name, Data: s}
		res, err := p.Compute()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res.Price
	}
	return tasks, want
}

// masterFunc is the signature RunMaster and RunStaticMaster share.
type masterFunc func(context.Context, mpi.Comm, []Task, Loader, Options) ([]Result, error)

// schedulers are the two assignment policies of the one dispatch loop.
// Failure, telemetry and cancellation behaviour belongs to the loop, not
// to a policy, so those tests run every case under both.
var schedulers = []struct {
	name string
	run  masterFunc
}{
	{"robin-hood", RunMaster},
	{"static", RunStaticMaster},
}

// runFarm executes one flat round on an in-process world: exec on every
// worker rank, run as the master.
func runFarm(t *testing.T, run masterFunc, exec Executor, tasks []Task, workers int, opts Options, store Store) []Result {
	t.Helper()
	w := mpi.NewLocalWorld(workers + 1)
	defer w.Close()
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := RunWorker(w.Comm(rank), exec, store, opts); err != nil {
				t.Errorf("worker %d: %v", rank, err)
			}
		}(r)
	}
	results, err := run(context.Background(), w.Comm(0), tasks, LiveLoader{}, opts)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return results
}

// runLocalFarm is runFarm with live pricing under the Robin-Hood master.
func runLocalFarm(t *testing.T, tasks []Task, workers int, opts Options, store Store) []Result {
	t.Helper()
	return runFarm(t, RunMaster, LiveExecutor{}, tasks, workers, opts, store)
}

func checkResults(t *testing.T, results []Result, want map[string]float64) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Name] {
			t.Fatalf("task %s priced twice", r.Name)
		}
		seen[r.Name] = true
		price, ok := priceOf(r)
		if !ok {
			t.Fatalf("result %s has no price", r.Name)
		}
		if math.Abs(price-want[r.Name]) > 1e-12 {
			t.Fatalf("task %s: price %v, want %v", r.Name, price, want[r.Name])
		}
	}
}

func TestFarmFullLoad(t *testing.T) {
	tasks, want := makePortfolio(t, 60)
	results := runLocalFarm(t, tasks, 4, Options{Strategy: FullLoad}, nil)
	checkResults(t, results, want)
}

func TestFarmSerializedLoad(t *testing.T) {
	tasks, want := makePortfolio(t, 60)
	results := runLocalFarm(t, tasks, 4, Options{Strategy: SerializedLoad}, nil)
	checkResults(t, results, want)
}

func TestFarmNFSLoad(t *testing.T) {
	tasks, want := makePortfolio(t, 60)
	store := MemStore{}
	for _, task := range tasks {
		store[task.Name] = task.Data
	}
	results := runLocalFarm(t, tasks, 4, Options{Strategy: NFSLoad}, store)
	checkResults(t, results, want)
}

func TestFarmStrategiesAgree(t *testing.T) {
	tasks, _ := makePortfolio(t, 30)
	store := MemStore{}
	for _, task := range tasks {
		store[task.Name] = task.Data
	}
	byName := func(results []Result) map[string]float64 {
		m := map[string]float64{}
		for _, r := range results {
			p, _ := priceOf(r)
			m[r.Name] = p
		}
		return m
	}
	full := byName(runLocalFarm(t, tasks, 3, Options{Strategy: FullLoad}, nil))
	ser := byName(runLocalFarm(t, tasks, 3, Options{Strategy: SerializedLoad}, nil))
	nfs := byName(runLocalFarm(t, tasks, 3, Options{Strategy: NFSLoad}, store))
	for name := range full {
		if full[name] != ser[name] || full[name] != nfs[name] {
			t.Fatalf("strategies disagree on %s: %v %v %v", name, full[name], ser[name], nfs[name])
		}
	}
}

func TestFarmSingleWorker(t *testing.T) {
	tasks, want := makePortfolio(t, 10)
	results := runLocalFarm(t, tasks, 1, Options{Strategy: SerializedLoad}, nil)
	checkResults(t, results, want)
}

func TestFarmMoreWorkersThanTasks(t *testing.T) {
	tasks, want := makePortfolio(t, 3)
	results := runLocalFarm(t, tasks, 8, Options{Strategy: SerializedLoad}, nil)
	checkResults(t, results, want)
}

func TestFarmEmptyPortfolio(t *testing.T) {
	results := runLocalFarm(t, nil, 3, Options{Strategy: SerializedLoad}, nil)
	if len(results) != 0 {
		t.Fatalf("empty portfolio returned %d results", len(results))
	}
}

func TestFarmBatching(t *testing.T) {
	tasks, want := makePortfolio(t, 57) // not a multiple of the batch size
	for _, bs := range []int{2, 5, 16, 100} {
		results := runLocalFarm(t, tasks, 4, Options{Strategy: SerializedLoad, BatchSize: bs}, nil)
		checkResults(t, results, want)
	}
}

func TestFarmBatchingFullLoad(t *testing.T) {
	tasks, want := makePortfolio(t, 23)
	results := runLocalFarm(t, tasks, 3, Options{Strategy: FullLoad, BatchSize: 4}, nil)
	checkResults(t, results, want)
}

func TestFarmUsesAllWorkers(t *testing.T) {
	tasks, _ := makePortfolio(t, 80)
	results := runLocalFarm(t, tasks, 4, Options{Strategy: SerializedLoad}, nil)
	used := map[int]bool{}
	for _, r := range results {
		used[r.Worker] = true
	}
	if len(used) != 4 {
		t.Fatalf("only %d of 4 workers used", len(used))
	}
}

func TestFarmNoWorkersError(t *testing.T) {
	w := mpi.NewLocalWorld(1)
	defer w.Close()
	if _, err := RunMaster(context.Background(), w.Comm(0), nil, LiveLoader{}, Options{}); err == nil {
		t.Fatal("master accepted a world without workers")
	}
}

func TestFarmNFSWithoutStoreFails(t *testing.T) {
	w := mpi.NewLocalWorld(2)
	tasks, _ := makePortfolio(t, 2)
	masterErr := make(chan error, 1)
	go func() {
		_, err := RunMaster(context.Background(), w.Comm(0), tasks, LiveLoader{}, Options{Strategy: NFSLoad})
		masterErr <- err
	}()
	if err := RunWorker(w.Comm(1), LiveExecutor{}, nil, Options{Strategy: NFSLoad}); err == nil {
		t.Fatal("worker without a store did not fail")
	}
	// The worker died before answering; closing the world must unblock the
	// master with an error rather than hang.
	w.Close()
	if err := <-masterErr; err == nil {
		t.Fatal("master returned success despite a dead worker")
	}
}

func TestHierarchyWorkersPartition(t *testing.T) {
	size, groups := 20, 3 // 1 root + 3 sub-masters + 16 workers
	var all []int
	for g := 0; g < groups; g++ {
		ws := HierarchyWorkers(size, groups, g)
		if len(ws) < 5 || len(ws) > 6 {
			t.Fatalf("group %d has %d workers", g, len(ws))
		}
		all = append(all, ws...)
	}
	sort.Ints(all)
	if len(all) != 16 {
		t.Fatalf("partition covers %d workers, want 16", len(all))
	}
	for i, r := range all {
		if r != 4+i {
			t.Fatalf("partition %v not contiguous from 4", all)
		}
	}
}

func TestHierarchyWorkersPanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HierarchyWorkers(4, 2, 0)
}

// TestLayoutRoles checks the rank→role map both runners spawn from:
// flat, rank 0 drives everyone; hierarchical, the root drives the
// sub-masters and every worker answers to the sub-master whose group
// lists it.
func TestLayoutRoles(t *testing.T) {
	flat, err := Layout(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 4 || len(flat[0].Workers) != 3 {
		t.Fatalf("flat layout %+v, want rank 0 driving 3 workers", flat)
	}
	for r := 1; r < 4; r++ {
		if flat[r].Rank != r || flat[r].Master != 0 || flat[r].Workers != nil {
			t.Errorf("flat rank %d = %+v, want a worker of rank 0", r, flat[r])
		}
	}
	hier, err := Layout(8, 2) // root + 2 sub-masters + 5 workers
	if err != nil {
		t.Fatal(err)
	}
	if got := hier[0].Workers; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("root drives %v, want the sub-masters [1 2]", got)
	}
	seen := 0
	for _, sub := range hier[0].Workers {
		if hier[sub].Master != 0 {
			t.Errorf("sub-master %d answers to %d, want the root", sub, hier[sub].Master)
		}
		for _, w := range hier[sub].Workers {
			seen++
			if hier[w].Master != sub || hier[w].Workers != nil {
				t.Errorf("rank %d = %+v, want a worker of sub-master %d", w, hier[w], sub)
			}
		}
	}
	if seen != 5 {
		t.Errorf("groups cover %d workers, want 5", seen)
	}
	for _, bad := range [][2]int{{1, 0}, {4, 2}, {3, -1}} {
		if _, err := Layout(bad[0], bad[1]); err == nil {
			t.Errorf("Layout(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// runHierarchy runs one round of the simulated sweep's hierarchy —
// Layout's roles, Role.Serve and RunRootMaster — over an in-process
// world: groups sub-masters, workers workers, chunk tasks a hand-off.
// Every rank is joined before it returns.
func runHierarchy(ctx context.Context, t *testing.T, tasks []Task, opts Options, store Store, groups, workers, chunk int) ([]Result, error) {
	t.Helper()
	roles, err := Layout(1+groups+workers, groups)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewLocalWorld(len(roles))
	defer world.Close()
	opts.LocalSpans = true
	var wg sync.WaitGroup
	for _, role := range roles[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := role.Serve(world.Comm(role.Rank), LiveExecutor{}, store, opts); err != nil {
				t.Errorf("rank %d: %v", role.Rank, err)
			}
		}()
	}
	results, err := RunRootMaster(ctx, world.Comm(0), tasks, LiveLoader{}, opts, groups, chunk)
	wg.Wait()
	return results, err
}

func TestFarmHierarchical(t *testing.T) {
	tasks, want := makePortfolio(t, 40)
	// root + 2 sub-masters + 6 workers
	results, err := runHierarchy(context.Background(), t, tasks, Options{Strategy: SerializedLoad}, nil, 2, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, want)
}

func TestFarmHierarchicalNFS(t *testing.T) {
	tasks, want := makePortfolio(t, 24)
	store := MemStore{}
	for _, task := range tasks {
		store[task.Name] = task.Data
	}
	results, err := runHierarchy(context.Background(), t, tasks, Options{Strategy: NFSLoad}, store, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, want)
}

func TestFarmOverTCP(t *testing.T) {
	tasks, want := makePortfolio(t, 20)
	const size = 4
	hub, err := mpi.ListenHubWith("127.0.0.1:0", size, mpi.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	opts := Options{Strategy: SerializedLoad}
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wc, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			defer c.Close()
			if err := RunWorker(c, LiveExecutor{}, nil, opts); err != nil {
				t.Errorf("tcp worker: %v", err)
			}
		}(wc)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	results, err := RunMaster(context.Background(), hub, tasks, LiveLoader{}, opts)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	checkResults(t, results, want)
	wg.Wait()
}

func TestStrategyStrings(t *testing.T) {
	if FullLoad.String() != "full load" || NFSLoad.String() != "NFS" || SerializedLoad.String() != "serialized load" {
		t.Fatal("strategy labels do not match the paper")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy has empty label")
	}
	if NFSLoad.NeedsPayload() || !FullLoad.NeedsPayload() || !SerializedLoad.NeedsPayload() {
		t.Fatal("NeedsPayload wrong")
	}
}

func goodBatch() *nsp.Hash {
	return encodeBatch([]Task{{Name: "x", Data: []byte{1}}, {Name: "y"}}, batchTrace{traceID: 7, parents: []uint64{1, 2}})
}

var batchCorruptions = []corruption{
	{"missing costs", func(h *nsp.Hash) { h.Del(descCosts) }},
	{"costs are a hash", func(h *nsp.Hash) { h.Set(descCosts, nsp.NewHash()) }},
	{"mismatched lengths", set(descCosts, 1)},
	{"negative size", set(descSizes, -1, 0)},
	{"size NaN", set(descSizes, math.NaN(), 0)},
	{"trace without parents", func(h *nsp.Hash) { h.Del(descParents) }},
	{"trace ID zero", set(descTrace, 0, 0)},
	{"trace halves are not 32-bit integers", set(descTrace, 0.5, 1e12)},
	{"parents truncated", set(descParents, 0, 1)},
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	if _, err := decodeBatch(encodeBatch(nil, batchTrace{})); err != nil {
		t.Fatalf("empty batch should decode: %v", err)
	}
	if _, err := decodeBatch(goodBatch()); err != nil {
		t.Fatalf("good batch should decode: %v", err)
	}
	if _, err := decodeBatch(nsp.Scalar(1)); err == nil {
		t.Fatal("non-hash descriptor accepted")
	}
	for _, tc := range batchCorruptions {
		h := goodBatch()
		tc.mutate(h)
		if _, err := decodeBatch(h); err == nil {
			t.Errorf("%s: corrupted descriptor accepted", tc.name)
		}
	}
}

// TestBatchTraceRoundTrip checks that trace context rides the descriptor
// and that untraced descriptors carry no trace fields (identical wire
// format to the pre-tracing protocol).
func TestBatchTraceRoundTrip(t *testing.T) {
	tasks := []Task{{Name: "a"}, {Name: "b"}}
	bt := batchTrace{traceID: 0xdeadbeefcafe, parents: []uint64{1 << 63, 42}}
	desc, err := decodeBatch(encodeBatch(tasks, bt))
	if err != nil {
		t.Fatal(err)
	}
	if desc.Trace.traceID != bt.traceID {
		t.Fatalf("trace ID %x, want %x", desc.Trace.traceID, bt.traceID)
	}
	if len(desc.Trace.parents) != 2 || desc.Trace.parents[0] != bt.parents[0] || desc.Trace.parents[1] != bt.parents[1] {
		t.Fatalf("parents %v, want %v", desc.Trace.parents, bt.parents)
	}
	plain := encodeBatch(tasks, batchTrace{})
	if _, ok := plain.Get(descTrace); ok {
		t.Fatal("untraced descriptor carries trace field")
	}
	if _, ok := plain.Get(descParents); ok {
		t.Fatal("untraced descriptor carries parents field")
	}
}

// TestSpanPayloadRoundTrip checks the worker→master span shipping codec,
// including 64-bit IDs that do not fit a float64.
func TestSpanPayloadRoundTrip(t *testing.T) {
	recs := []telemetry.SpanRecord{
		{ID: 1<<63 + 7, ParentID: 3, TraceID: 9, Name: "farm.compute", Start: 1.5, End: 2.25},
		{ID: 12, ParentID: 1<<63 + 7, TraceID: 9, Name: "kernel", Start: 1.6, End: 2.0},
	}
	var wr workerRecords
	if ok, err := decodeRecords(encodeSpanPayload(recs, 1.25), &wr); !ok || err != nil {
		t.Fatalf("span payload: recognized %v, err %v", ok, err)
	}
	got, recvAt := wr.spans, wr.recvAt
	if recvAt != 1.25 {
		t.Fatalf("recvAt = %v, want 1.25", recvAt)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// A regular result hash is not mistaken for a span payload.
	if ok, _ := decodeRecords(wireResult(t, "x", 1), &wr); ok {
		t.Fatal("result hash misdetected as span payload")
	}
}

func TestFarmNFSOverRealFiles(t *testing.T) {
	// The genuine NFS-strategy deployment: problems saved as files in a
	// shared directory, workers reading them back with FileStore, over the
	// TCP transport — the closest this repo gets to the paper's cluster
	// runs without a cluster.
	dir := t.TempDir()
	pf := make([]Task, 0, 12)
	want := map[string]float64{}
	for i := 0; i < 12; i++ {
		k := 90 + float64(i)
		p := premia.New().
			SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
			Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", k).Set("T", 1)
		path := fmt.Sprintf("%s/pb-%02d.bin", dir, i)
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
		res, err := p.Compute()
		if err != nil {
			t.Fatal(err)
		}
		want[path] = res.Price
		// Task names ARE the file paths under the NFS strategy; Data stays
		// empty on the master (only sizes travel).
		info, err := nsp.SLoad(path)
		if err != nil {
			t.Fatal(err)
		}
		pf = append(pf, Task{Name: path, Data: make([]byte, len(info.Data))})
	}
	const size = 3
	hub, err := mpi.ListenHubWith("127.0.0.1:0", size, mpi.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	opts := Options{Strategy: NFSLoad}
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wc, err := mpi.DialHubWith(hub.Addr(), mpi.WorldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			defer c.Close()
			if err := RunWorker(c, LiveExecutor{}, FileStore{}, opts); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(wc)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	results, err := RunMaster(context.Background(), hub, pf, LiveLoader{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results) != 12 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		price, ok := priceOf(r)
		if !ok || price != want[r.Name] {
			t.Fatalf("%s: price %v, want %v", r.Name, price, want[r.Name])
		}
	}
}

func TestFarmRejectsDuplicateNames(t *testing.T) {
	w := mpi.NewLocalWorld(2)
	defer w.Close()
	tasks := []Task{{Name: "same", Data: []byte("a")}, {Name: "same", Data: []byte("b")}}
	if _, err := RunMaster(context.Background(), w.Comm(0), tasks, LiveLoader{}, Options{Strategy: SerializedLoad}); err == nil {
		t.Fatal("duplicate task names accepted")
	}
}

// The static and hierarchical masters share RunMaster's duplicate-name
// validation (names key retry bookkeeping and results), so both must
// reject conflating task lists before dispatching anything.
func TestStaticFarmRejectsDuplicateNames(t *testing.T) {
	w := mpi.NewLocalWorld(2)
	defer w.Close()
	tasks := []Task{{Name: "same", Data: []byte("a")}, {Name: "same", Data: []byte("b")}}
	if _, err := RunStaticMaster(context.Background(), w.Comm(0), tasks, LiveLoader{}, Options{Strategy: SerializedLoad}); err == nil {
		t.Fatal("duplicate task names accepted by static master")
	}
}

func TestRootMasterRejectsDuplicateNames(t *testing.T) {
	w := mpi.NewLocalWorld(2)
	defer w.Close()
	tasks := []Task{{Name: "same", Data: []byte("a")}, {Name: "same", Data: []byte("b")}}
	if _, err := RunRootMaster(context.Background(), w.Comm(0), tasks, LiveLoader{}, Options{Strategy: SerializedLoad}, 1, 1); err == nil {
		t.Fatal("duplicate task names accepted by root master")
	}
}

// TestExecuteObjProblemOrHash: the live executor prices a problem that
// arrived as itself, as the hash it travels as (what the benchmark's
// by-reference tasks carry), or as that hash's bytes, to the same typed
// result — and a round over an in-process world hands that result to the
// master as it stands, in all three shapes.
func TestExecuteObjProblemOrHash(t *testing.T) {
	p := premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.04).Set("sigma", 0.2).Set("K", 95).Set("T", 1.5)
	want, err := p.Compute()
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.ToNsp()
	if err != nil {
		t.Fatal(err)
	}
	data, err := serializeHash(h)
	if err != nil {
		t.Fatal(err)
	}
	exec := LiveExecutor{}
	byProblem, err := exec.ExecuteObj("pb", p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	byHash, err := exec.ExecuteObj("pb", h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	byBytes, err := exec.Execute("pb", data, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for shape, res := range map[string]nsp.Object{"problem": byProblem, "hash": byHash, "bytes": byBytes} {
		got, ok := res.(*Priced)
		if !ok || got.Name != "pb" || got.Result != want || got.Err != nil {
			t.Errorf("problem shipped as %s priced to %+v, want %+v", shape, res, want)
		}
	}
	if !byProblem.Equal(byHash) || !p.Equal(h) {
		t.Error("a problem and its hash, or their results, compare unequal")
	}

	tasks := []Task{{Name: "as-problem", Obj: p}, {Name: "as-hash", Obj: h}, {Name: "as-bytes", Data: data}}
	results := runLocalFarm(t, tasks, 2, Options{Strategy: SerializedLoad}, nil)
	if len(results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(tasks))
	}
	for _, r := range results {
		got, ok := r.Value.(*Priced)
		if !ok || r.Err != nil || got.Result != want || got.Seconds < 0 {
			t.Errorf("task %s: %+v (%v), want %+v as a *Priced", r.Name, r.Value, r.Err, want)
		}
	}
}
