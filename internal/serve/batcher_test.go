package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// recordingPrice returns a PriceFunc that records flushed batch sizes
// and prices each problem as its strike (no kernel involved).
func recordingPrice(mu *sync.Mutex, sizes *[]int) PriceFunc {
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		mu.Lock()
		*sizes = append(*sizes, len(problems))
		mu.Unlock()
		out := make([]risk.PriceOutcome, len(problems))
		for i, p := range problems {
			out[i] = risk.PriceOutcome{Result: premia.Result{Price: p.Params["K"]}}
		}
		return out, nil
	}
}

func batchProblem(k float64) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", k).Set("T", 1)
}

// loneRequest is a /price-shaped request: one problem of strike k.
func loneRequest(k float64) *priceRequest {
	return &priceRequest{problems: []*premia.Problem{batchProblem(k)}, done: make(chan priceResponse, 1)}
}

func TestBatcherFlushOnSize(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newBatcher(context.Background(), recordingPrice(&mu, &sizes), 4, time.Hour, 64, telemetry.New())
	defer b.close()
	reqs := make([]*priceRequest, 4)
	for i := range reqs {
		reqs[i] = loneRequest(float64(90 + i))
		if !b.submit(reqs[i]) {
			t.Fatal("submit rejected")
		}
	}
	// maxDelay is an hour: only the size trigger can flush.
	for i, r := range reqs {
		select {
		case resp := <-r.done:
			if resp.err != nil || resp.outcomes[0].Result.Price != float64(90+i) {
				t.Fatalf("request %d: %+v", i, resp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("flushed batches %v, want one batch of 4", sizes)
	}
}

func TestBatcherFlushOnDelay(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newBatcher(context.Background(), recordingPrice(&mu, &sizes), 100, 5*time.Millisecond, 64, telemetry.New())
	defer b.close()
	reqs := make([]*priceRequest, 3)
	for i := range reqs {
		reqs[i] = loneRequest(float64(90 + i))
		b.submit(reqs[i])
	}
	for i, r := range reqs {
		select {
		case resp := <-r.done:
			if resp.err != nil {
				t.Fatalf("request %d: %v", i, resp.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered: delay flush missing", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("flushed batches %v, want one underfull batch of 3", sizes)
	}
}

func TestBatcherQueueFull(t *testing.T) {
	gate := make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		<-gate
		return make([]risk.PriceOutcome, len(problems)), nil
	}
	b := newBatcher(context.Background(), price, 1, time.Hour, 2, telemetry.New())
	// First request flushes immediately and blocks the loop in the gated
	// price func; the next two fill the queue.
	first := loneRequest(90)
	if !b.submit(first) {
		t.Fatal("first submit rejected")
	}
	// Wait for the loop to pick up the first request so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	queued := []*priceRequest{}
	for len(queued) < 2 {
		r := loneRequest(91)
		if b.submit(r) {
			queued = append(queued, r)
		} else if time.Now().After(deadline) {
			t.Fatal("queue never accepted two requests")
		}
	}
	if b.submit(loneRequest(92)) {
		t.Fatal("submit accepted beyond queue capacity")
	}
	close(gate)
	b.close()
	for _, r := range append([]*priceRequest{first}, queued...) {
		select {
		case <-r.done:
		case <-time.After(5 * time.Second):
			t.Fatal("queued request dropped on close")
		}
	}
}

// TestBatcherShortPriceSlice feeds the batcher a PriceFunc that returns
// fewer outcomes than problems. Pre-fix the out-of-range index panicked
// the batcher goroutine, stranding every queued request; now the whole
// batch fails with a batch-level error and the loop keeps serving.
func TestBatcherShortPriceSlice(t *testing.T) {
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return make([]risk.PriceOutcome, len(problems)-1), nil
	}
	b := newBatcher(context.Background(), price, 2, time.Hour, 64, telemetry.New())
	defer b.close()
	for round := 0; round < 2; round++ {
		reqs := make([]*priceRequest, 2)
		for i := range reqs {
			reqs[i] = loneRequest(float64(90 + i))
			if !b.submit(reqs[i]) {
				t.Fatalf("round %d: submit %d rejected", round, i)
			}
		}
		for i, r := range reqs {
			select {
			case resp := <-r.done:
				if resp.err == nil {
					t.Fatalf("round %d request %d: want error for short outcome slice", round, i)
				}
			case <-time.After(5 * time.Second):
				// Round 2 hanging would mean the loop goroutine died on round 1.
				t.Fatalf("round %d request %d never answered", round, i)
			}
		}
	}
}

func TestBatcherCloseFlushesRemainder(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newBatcher(context.Background(), recordingPrice(&mu, &sizes), 100, time.Hour, 64, telemetry.New())
	r := loneRequest(95)
	b.submit(r)
	b.close() // neither size nor delay fired: close must flush
	select {
	case resp := <-r.done:
		if resp.err != nil || resp.outcomes[0].Result.Price != 95 {
			t.Fatalf("bad close-flush response: %+v", resp)
		}
	default:
		t.Fatal("close dropped the buffered request")
	}
}
