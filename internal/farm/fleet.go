package farm

import (
	"math"
	"sort"
	"sync"
)

// Fleet is the master's per-worker health book: who is busy with what,
// who completes, who fails, and who straggles. The master updates it on
// every dispatch and every result when Options.Fleet is set; /debug/farm
// serves its Snapshot. One Fleet can outlive many farm runs — the serve
// layer keeps a single Fleet across requests so worker history
// accumulates — and rank identity is per-farm-world (rank 3 is the same
// worker across runs on one backend).
//
// ewmaAlpha weighs the exponentially weighted moving average of task
// duration: 0.2 means the last ~5 tasks dominate, fast enough to catch
// a worker that just started struggling, slow enough to ride out one
// expensive American basket.
const ewmaAlpha = 0.2

// workerState is one worker's live accumulator.
type workerState struct {
	inFlight  int
	completed int64
	failed    int64 // task failures attributed to this worker
	ewma      float64
	ewmaSeen  bool
	lastSeen  float64
}

// Fleet aggregates per-worker health. The zero value is not usable;
// create with NewFleet. A nil *Fleet discards updates, so the farm's
// hot path never branches on "is fleet tracking on".
type Fleet struct {
	mu      sync.Mutex
	workers map[int]*workerState
}

// NewFleet returns an empty fleet book.
func NewFleet() *Fleet {
	return &Fleet{workers: make(map[int]*workerState)}
}

func (f *Fleet) worker(rank int) *workerState {
	w := f.workers[rank]
	if w == nil {
		w = &workerState{}
		f.workers[rank] = w
	}
	return w
}

// dispatched records n tasks entering flight on rank at time now.
func (f *Fleet) dispatched(rank, n int, now float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	w := f.worker(rank)
	w.inFlight += n
	w.lastSeen = now
	f.mu.Unlock()
}

// completed records n tasks leaving flight on rank, each with per-task
// duration dur (batch-mates share the batch round trip, matching the
// farm.task_seconds histogram).
func (f *Fleet) completed(rank, n int, dur, now float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	w := f.worker(rank)
	w.inFlight -= n
	if w.inFlight < 0 {
		w.inFlight = 0
	}
	w.completed += int64(n)
	w.lastSeen = now
	if !w.ewmaSeen {
		w.ewma, w.ewmaSeen = dur, true
	} else {
		w.ewma += ewmaAlpha * (dur - w.ewma)
	}
	f.mu.Unlock()
}

// taskFailed attributes one task failure to rank.
func (f *Fleet) taskFailed(rank int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.worker(rank).failed++
	f.mu.Unlock()
}

// WorkerHealth is one worker's row in a fleet snapshot.
type WorkerHealth struct {
	Rank      int   `json:"rank"`
	InFlight  int   `json:"in_flight"`
	Completed int64 `json:"completed"`
	// Failed counts the tasks whose pricing failed on this worker.
	Failed int64 `json:"failed"`
	// EWMASeconds is the exponentially weighted moving average of the
	// worker's per-task duration; 0 until the first completion.
	EWMASeconds float64 `json:"ewma_task_seconds"`
	// LastSeen is the registry-clock time of the last dispatch to or
	// result from this worker.
	LastSeen float64 `json:"last_seen"`
	// StragglerScore is the z-score of this worker's EWMA duration
	// against the fleet (how many standard deviations slower than the
	// mean); 0 when fewer than two workers have completions or the
	// fleet is perfectly uniform. Positive ≈ straggling.
	StragglerScore float64 `json:"straggler_score"`
}

// Snapshot returns every known worker's health, rank-ordered, with
// straggler scores computed against the current fleet.
func (f *Fleet) Snapshot() []WorkerHealth {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	ranks := make([]int, 0, len(f.workers))
	for rank := range f.workers {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	out := make([]WorkerHealth, 0, len(ranks))
	var sum, sumSq float64
	var n int
	for _, rank := range ranks {
		w := f.workers[rank]
		out = append(out, WorkerHealth{
			Rank:        rank,
			InFlight:    w.inFlight,
			Completed:   w.completed,
			Failed:      w.failed,
			EWMASeconds: w.ewma,
			LastSeen:    w.lastSeen,
		})
		if w.ewmaSeen {
			sum += w.ewma
			sumSq += w.ewma * w.ewma
			n++
		}
	}
	f.mu.Unlock()
	if n >= 2 {
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance > 0 {
			std := math.Sqrt(variance)
			for i := range out {
				if out[i].Completed > 0 {
					out[i].StragglerScore = (out[i].EWMASeconds - mean) / std
				}
			}
		}
	}
	return out
}
