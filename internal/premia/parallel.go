package premia

import (
	"fmt"
	"sync"
	"sync/atomic"

	"riskbench/internal/mathutil"
)

// The multicore pricing kernel: a sharded path-simulation runtime shared
// by the Monte Carlo methods of this package. The paper prices each
// option on a single processor; this layer is the natural extension once
// nodes are multi-core (the unused second core of the paper's Xeons): a
// worker rank can spend every local core on one pricing task.
//
// Determinism contract: the path budget is always decomposed into the
// same shards — each with its own RNG stream derived by Split from the
// problem seed, and its own accumulators — and the per-shard statistics
// are merged in shard order. The thread count only decides how many
// goroutines consume the shard queue, so an estimate depends solely on
// (seed, paths): threads=1 and threads=K return bit-identical results.

// kernelShards is the fixed shard count of the kernel (fewer only when
// there are fewer paths than shards). 64 shards keep the pool busy on any
// realistic core count while leaving each shard enough paths to amortise
// its RNG split, and — being independent of the thread count — keep the
// decomposition, and therefore the estimate, thread-invariant.
const kernelShards = 64

// kernelThreadsKey is the per-problem override of the kernel pool size.
const kernelThreadsKey = "threads"

// kernelDefaultThreads holds the process-wide default pool size installed
// by SetKernelThreads; values < 1 mean serial execution.
var kernelDefaultThreads atomic.Int64

// SetKernelThreads installs the process-wide default worker count of the
// multicore pricing kernel, used by every Compute whose problem carries
// no explicit "threads" parameter. n < 1 (and the initial state) selects
// serial execution. Typically wired through the riskbench façade.
func SetKernelThreads(n int) {
	kernelDefaultThreads.Store(int64(n))
}

// kernelThreads resolves the pool size for one problem: its "threads"
// parameter if present, else the process default.
func kernelThreads(p *Problem) (int, error) {
	def := int(kernelDefaultThreads.Load())
	if def < 1 {
		def = 1
	}
	threads := p.Params.Int(kernelThreadsKey, def)
	if threads < 1 {
		return 0, fmt.Errorf("premia: %s needs threads >= 1, got %d", p.Method, threads)
	}
	return threads, nil
}

// shardCounts partitions n paths over min(kernelShards, n) shards as
// evenly as possible. The split depends only on n.
func shardCounts(n int) []int {
	shards := kernelShards
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	counts := make([]int, shards)
	base, rem := n/shards, n%shards
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// kernelRun executes body(0), …, body(shards-1) on the calling goroutine
// and threads−1 helpers (never more goroutines than shards), handing
// shards out through an atomic cursor. Which goroutine runs which shard
// is scheduling-dependent, but every shard's work must be self-contained
// (own RNG, own output slots), so the assignment cannot influence results.
// Per-shard compute times go to the "premia.kernel.shard_seconds"
// histogram, and each run sets the "premia.kernel.threads" gauge to its
// goroutine count and "premia.kernel.efficiency" to busy time over
// goroutines×wall (1.0 meaning perfect scaling) in the package sink.
func kernelRun(threads, shards int, body func(shard int)) {
	if shards < 1 {
		return
	}
	threads = max(min(threads, shards), 1)
	reg := sink.Load()
	var durs []float64
	var t0 float64
	run := body
	if reg != nil {
		durs = make([]float64, shards)
		t0 = reg.Now()
		run = func(s int) {
			start := reg.Now()
			body(s)
			durs[s] = reg.Now() - start
		}
	}
	if threads == 1 {
		for s := 0; s < shards; s++ {
			run(s)
		}
	} else {
		var next atomic.Int64
		work := func() {
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				run(s)
			}
		}
		var wg sync.WaitGroup
		wg.Add(threads - 1)
		for t := 1; t < threads; t++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	if reg != nil {
		busy := 0.0
		for _, d := range durs {
			reg.Observe("premia.kernel.shard_seconds", d)
			busy += d
		}
		reg.Counter("premia.kernel.runs").Add(1)
		reg.Gauge("premia.kernel.threads").Set(float64(threads))
		if wall := reg.Now() - t0; wall > 0 {
			reg.Gauge("premia.kernel.efficiency").Set(busy / (float64(threads) * wall))
		}
	}
}

// soaBlock is the unit granularity of the struct-of-arrays method loops:
// normal draws, path evolution and payoff evaluation each run as tight
// batched passes over contiguous scratch buffers of at most this many
// float64 (32 KiB), large enough to amortise per-call overhead and small
// enough to stay cache-resident.
const soaBlock = 4096

// kernelScratch is one shard's reusable buffer arena. Method bodies draw
// their working []float64 from it instead of allocating, so a shard's
// buffers are reused across blocks within a run and — through the arena
// pool — across runs. Buffers are only valid until the shard body
// returns; bodies must not retain them.
type kernelScratch struct {
	rng  mathutil.RNG // the shard's stream, reseeded by SplitInto per run
	accs []mathutil.Welford
	bufs [][]float64
	next int
}

// floats returns a scratch []float64 of length n with arbitrary contents,
// reusing a previously grown buffer when one is large enough.
func (s *kernelScratch) floats(n int) []float64 {
	if s.next < len(s.bufs) && cap(s.bufs[s.next]) >= n {
		b := s.bufs[s.next][:n]
		s.next++
		return b
	}
	b := make([]float64, n)
	if s.next < len(s.bufs) {
		s.bufs[s.next] = b
	} else {
		s.bufs = append(s.bufs, b)
	}
	s.next++
	return b
}

// welford returns n zeroed accumulators backed by the scratch.
func (s *kernelScratch) welford(n int) []mathutil.Welford {
	if cap(s.accs) < n {
		s.accs = make([]mathutil.Welford, n)
	}
	s.accs = s.accs[:n]
	for i := range s.accs {
		s.accs[i] = mathutil.Welford{}
	}
	return s.accs
}

// kernelArena holds one kernel run's per-shard scratches. Arenas are
// pooled across runs (concurrent runs each draw their own arena, so the
// per-shard buffers never contend), which is what makes the steady-state
// path-generation loop allocation-free.
type kernelArena struct {
	shards []kernelScratch
}

var arenaPool = sync.Pool{New: func() any { return new(kernelArena) }}

// getArena returns a pooled arena sized to `shards`, with every scratch
// rewound so its buffers are reusable.
func getArena(shards int) *kernelArena {
	a := arenaPool.Get().(*kernelArena)
	if cap(a.shards) < shards {
		old := a.shards
		a.shards = make([]kernelScratch, shards)
		copy(a.shards, old[:cap(old)])
	}
	a.shards = a.shards[:shards]
	for i := range a.shards {
		a.shards[i].next = 0
	}
	return a
}

func putArena(a *kernelArena) { arenaPool.Put(a) }

// mcKernel is what a Monte Carlo run needs from its problem besides the
// method's own parameters: the seed its shard streams split from and the
// pool width it runs at. Only the seed reaches a result.
type mcKernel struct {
	seed    uint64
	threads int
}

// kernelOf reads a problem's kernel settings, failing as kernelThreads
// does.
func kernelOf(p *Problem) (mcKernel, error) {
	threads, err := kernelThreads(p)
	if err != nil {
		return mcKernel{}, err
	}
	return mcKernel{seed: mcSeed(p), threads: threads}, nil
}

// runPathKernel is k.paths on the problem's kernel settings.
func runPathKernel(p *Problem, n, naccs int, body func(rng *mathutil.RNG, n int, accs []mathutil.Welford, scratch *kernelScratch)) ([]mathutil.Welford, error) {
	k, err := kernelOf(p)
	if err != nil {
		return nil, err
	}
	return k.paths(n, naccs, body), nil
}

// paths simulates n independent units (paths, antithetic pairs, …)
// through the kernel: body runs once per shard with the shard's own
// decorrelated RNG stream, its unit count, naccs fresh accumulators, and
// the shard's scratch arena for struct-of-arrays buffers. The per-shard
// accumulators are merged in shard order, so the returned statistics
// depend only on (seed, n), never on the thread count.
func (k mcKernel) paths(n, naccs int, body func(rng *mathutil.RNG, n int, accs []mathutil.Welford, scratch *kernelScratch)) []mathutil.Welford {
	counts := shardCounts(n)
	base := mathutil.NewRNG(k.seed)
	a := getArena(len(counts))
	defer putArena(a)
	kernelRun(k.threads, len(counts), func(s int) {
		sc := &a.shards[s]
		base.SplitInto(&sc.rng, uint64(s))
		body(&sc.rng, counts[s], sc.welford(naccs), sc)
	})
	merged := make([]mathutil.Welford, naccs)
	for s := range a.shards {
		for j := range merged {
			merged[j].Merge(a.shards[s].accs[j])
		}
	}
	return merged
}

// indexed is the lower-level shape for methods that write per-path
// results into pre-allocated disjoint slices (the LSM path-generation
// phase): body receives the shard index, the shard's global unit offset
// and count, the shard's RNG stream, and the shard's scratch arena.
func (k mcKernel) indexed(n int, body func(shard, start, count int, rng *mathutil.RNG, scratch *kernelScratch)) {
	counts := shardCounts(n)
	starts := make([]int, len(counts))
	for i := 1; i < len(counts); i++ {
		starts[i] = starts[i-1] + counts[i-1]
	}
	base := mathutil.NewRNG(k.seed)
	a := getArena(len(counts))
	defer putArena(a)
	kernelRun(k.threads, len(counts), func(s int) {
		sc := &a.shards[s]
		base.SplitInto(&sc.rng, uint64(s))
		body(s, starts[s], counts[s], &sc.rng, sc)
	})
}
