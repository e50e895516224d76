package serve

import (
	"sync"

	"riskbench/internal/risk"
)

// flightCall is one in-flight computation of a content key. The leader
// closes done exactly once, after outcome and err — the batch-level
// failure that cost the leader its answer — are set.
type flightCall struct {
	done    chan struct{}
	outcome risk.PriceOutcome
	err     error
}

// flightGroup suppresses duplicate in-flight computations: for each
// content key, the first caller becomes the leader and actually prices;
// concurrent callers of the same key wait for the leader's result. This
// is the "singleflight" contract — N concurrent identical requests
// produce exactly one kernel evaluation — without the cache having to
// hold placeholder entries.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// begin registers interest in key. It returns the call and whether the
// caller is the leader (and therefore responsible for calling finish).
func (g *flightGroup) begin(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's result to every waiter and retires the
// key, so later requests start a fresh flight (or hit the cache).
func (g *flightGroup) finish(key string, c *flightCall, outcome risk.PriceOutcome, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.outcome, c.err = outcome, err
	close(c.done)
}
