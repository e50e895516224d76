package serve

import (
	"context"
	"fmt"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// PriceFunc prices a batch of problems and returns index-aligned
// outcomes. risk.Engine.PriceBatch is the production implementation;
// tests substitute stubs to count kernel evaluations. The problems
// slice is reused across batches, so implementations must not retain it
// past the call; the outcomes they return are the batcher's to hand
// out, so they must not reuse those either.
type PriceFunc func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error)

// priceRequest is the problems of one request waiting for a batch slot:
// one for a lone /price, every flight leader of a /batch — a group that
// is queued, flushed and answered as a whole. done is buffered, so the
// batcher's reply never blocks even when the requester has abandoned its
// deadline. trace is where the request sits in its distributed trace and
// queue times its wait for a batch slot; span is the trace's root when
// this descriptor opened it (a lone problem) and nil when the request it
// belongs to did (/batch). All are zero when tracing is off.
type priceRequest struct {
	problems []*premia.Problem
	done     chan priceResponse
	trace    telemetry.TraceContext
	span     *telemetry.Span
	queue    *telemetry.Span
}

// priceResponse answers one request: outcomes index-aligned with its
// problems, or the batch-level failure (transport, cancellation) that
// cost it all of them.
type priceResponse struct {
	outcomes []risk.PriceOutcome
	err      error
}

// batcher coalesces requests into farm batches: it flushes whenever the
// waiting requests hold maxBatch problems (the engine's Batch) or more
// between them, or maxDelay has passed since the first request of the
// current batch — the dynamic version of the farm's BatchSize bunching,
// applied to request traffic instead of a pre-built portfolio. A request
// is never split: a 256-problem group flushes at once, with whatever lone
// requests were waiting, as one batch.
//
// Flushes run synchronously on the batcher goroutine; while one batch
// is pricing, later arrivals accumulate in the bounded input queue and
// form the next batch. Intra-batch parallelism comes from the engine's
// farm workers, inter-request dedup from the server's singleflight
// layer above.
type batcher struct {
	price    PriceFunc
	maxBatch int
	maxDelay time.Duration
	reg      *telemetry.Registry
	ctx      context.Context
	in       chan *priceRequest
	exited   chan struct{}

	// problems is runBatch's reusable argument slice for price; both run
	// on the batcher goroutine, so no locking is needed.
	problems []*premia.Problem
}

func newBatcher(ctx context.Context, price PriceFunc, maxBatch int, maxDelay time.Duration, queue int, reg *telemetry.Registry) *batcher {
	b := &batcher{
		price:    price,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		reg:      reg,
		ctx:      ctx,
		in:       make(chan *priceRequest, queue),
		exited:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit enqueues a request without blocking; false means the queue is
// full and the caller should shed load (429).
func (b *batcher) submit(r *priceRequest) bool {
	select {
	case b.in <- r:
		return true
	default:
		return false
	}
}

// submitWait enqueues a request, blocking until there is queue space or
// the context ends — backpressure for callers that fan one admitted
// request into many problems (the /batch endpoint).
func (b *batcher) submitWait(ctx context.Context, r *priceRequest) error {
	select {
	case b.in <- r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the batcher after flushing everything already queued. The
// server guarantees no submit is concurrent with close (it drains
// admitted requests first), so closing the channel is safe.
func (b *batcher) close() {
	close(b.in)
	<-b.exited
}

func (b *batcher) loop() {
	defer close(b.exited)
	// buf and the flush timer are reused across batches: runBatch is
	// synchronous, so once it returns the batch's descriptors belong to
	// their consumers and buf can be truncated in place.
	var (
		buf     []*priceRequest
		pending int // problems in buf
		timer   *time.Timer
		timeout <-chan time.Time
	)
	flush := func() {
		if timeout != nil {
			if !timer.Stop() {
				// The timer fired between the maxBatch flush decision and
				// here; drain the stale tick so the reused timer cannot
				// flush the next batch prematurely.
				select {
				case <-timer.C:
				default:
				}
			}
			timeout = nil
		}
		if len(buf) == 0 {
			return
		}
		b.reg.Observe("serve.batch.size", float64(pending))
		b.runBatch(buf)
		clear(buf) // the descriptors belong to their requesters now
		buf, pending = buf[:0], 0
	}
	for {
		select {
		case r, ok := <-b.in:
			if !ok {
				flush()
				return
			}
			buf = append(buf, r)
			pending += len(r.problems)
			if pending >= b.maxBatch {
				b.reg.Counter("serve.batch.flush_size").Add(1)
				flush()
			} else if timeout == nil {
				if timer == nil {
					timer = time.NewTimer(b.maxDelay)
				} else {
					timer.Reset(b.maxDelay)
				}
				timeout = timer.C
			}
		case <-timeout:
			timeout = nil
			b.reg.Counter("serve.batch.flush_delay").Add(1)
			flush()
		}
	}
}

// runBatch prices one flushed batch and fans the outcomes back out,
// each request getting the stretch of them that answers its problems.
// The batch prices under the first traced request's trace — one farm run
// serves the whole batch, so one tree carries its full breakdown; the
// other requests' traces keep their queue timing.
func (b *batcher) runBatch(batch []*priceRequest) {
	problems := b.problems[:0]
	ctx := b.ctx
	adopted := false
	for _, r := range batch {
		problems = append(problems, r.problems...)
		r.queue.End()
		if !adopted && r.trace.Valid() {
			ctx = telemetry.ContextWithTrace(ctx, r.trace)
			adopted = true
		}
	}
	out, err := b.price(ctx, problems)
	if err == nil && len(out) != len(problems) {
		// A misbehaving PriceFunc must not panic the batcher goroutine —
		// that would strand every waiter in this and all later batches.
		// Surface the mismatch as a batch-level error instead.
		err = fmt.Errorf("serve: price returned %d outcomes for %d problems", len(out), len(problems))
	}
	clear(problems) // the problems belong to their requesters
	b.problems = problems
	next := 0
	for _, r := range batch {
		r.span.End() // nil unless this descriptor opened its trace's root
		if err != nil {
			r.done <- priceResponse{err: err}
			continue
		}
		end := next + len(r.problems)
		r.done <- priceResponse{outcomes: out[next:end:end]}
		next = end
	}
}
