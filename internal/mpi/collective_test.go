package mpi

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

// runCollective executes body concurrently on every rank of a fresh local
// world and waits for completion.
func runCollective(t *testing.T, size int, body func(c Comm)) {
	t.Helper()
	w := NewLocalWorld(size)
	defer w.Close()
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(w.Comm(rank))
		}(r)
	}
	wg.Wait()
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, root := range []int{0, size - 1, size / 2} {
			payload := []byte(fmt.Sprintf("msg-%d-%d", size, root))
			var mu sync.Mutex
			got := map[int][]byte{}
			runCollective(t, size, func(c Comm) {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out, err := Bcast(c, in, root)
				if err != nil {
					t.Errorf("size %d root %d rank %d: %v", size, root, c.Rank(), err)
					return
				}
				mu.Lock()
				got[c.Rank()] = out
				mu.Unlock()
			})
			for r := 0; r < size; r++ {
				if !bytes.Equal(got[r], payload) {
					t.Fatalf("size %d root %d: rank %d got %q", size, root, r, got[r])
				}
			}
		}
	}
}

func TestBcastBadRoot(t *testing.T) {
	w := NewLocalWorld(2)
	defer w.Close()
	if _, err := Bcast(w.Comm(0), nil, 5); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		var got []float64
		root := size - 1
		runCollective(t, size, func(c Comm) {
			vec := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			out, err := Reduce(c, vec, OpSum, root)
			if err != nil {
				t.Errorf("size %d rank %d: %v", size, c.Rank(), err)
				return
			}
			if c.Rank() == root {
				got = out
			}
		})
		wantSum := 0.0
		wantSq := 0.0
		for r := 0; r < size; r++ {
			wantSum += float64(r)
			wantSq += float64(r * r)
		}
		want := []float64{wantSum, float64(size), wantSq}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("size %d: reduce = %v, want %v", size, got, want)
			}
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	const size = 7
	var gotMax, gotMin []float64
	runCollective(t, size, func(c Comm) {
		out, err := Reduce(c, []float64{float64(c.Rank())}, OpMax, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			gotMax = out
		}
	})
	runCollective(t, size, func(c Comm) {
		out, err := Reduce(c, []float64{float64(c.Rank())}, OpMin, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			gotMin = out
		}
	})
	if gotMax[0] != size-1 || gotMin[0] != 0 {
		t.Fatalf("max %v min %v", gotMax, gotMin)
	}
}

// allReduce is the reduce-then-broadcast composition the intra-task LSM
// item will run (regression moments reduced at rank 0, coefficients
// broadcast back): no exported helper wraps it, but the two collectives
// that stay must compose, so the tests keep exercising the pattern.
func allReduce(c Comm, vec []float64, op ReduceOp) ([]float64, error) {
	acc, err := Reduce(c, vec, op, 0)
	if err != nil {
		return nil, err
	}
	data, err := Bcast(c, encodeFloats(acc), 0)
	if err != nil {
		return nil, err
	}
	return decodeFloats(data)
}

func TestAllReduce(t *testing.T) {
	const size = 6
	var mu sync.Mutex
	got := map[int][]float64{}
	runCollective(t, size, func(c Comm) {
		out, err := allReduce(c, []float64{1, float64(c.Rank())}, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		got[c.Rank()] = out
		mu.Unlock()
	})
	want := []float64{size, float64(size * (size - 1) / 2)}
	for r := 0; r < size; r++ {
		if len(got[r]) != 2 || got[r][0] != want[0] || got[r][1] != want[1] {
			t.Fatalf("rank %d: %v, want %v", r, got[r], want)
		}
	}
}

func TestCollectivesOverTCP(t *testing.T) {
	hub, workers := startTCPWorld(t, 4)
	var wg sync.WaitGroup
	results := make([][]float64, 4)
	run := func(idx int, c Comm) {
		defer wg.Done()
		out, err := allReduce(c, []float64{float64(c.Rank() + 1)}, OpSum)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		results[idx] = out
	}
	wg.Add(4)
	go run(0, hub)
	for i, w := range workers {
		go run(i+1, w)
	}
	wg.Wait()
	for i, r := range results {
		if len(r) != 1 || r[0] != 10 { // 1+2+3+4
			t.Fatalf("participant %d: %v", i, r)
		}
	}
}

func TestEncodeDecodeFloats(t *testing.T) {
	vec := []float64{0, -1.5, math.Inf(1), math.Pi}
	back, err := decodeFloats(encodeFloats(vec))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if back[i] != vec[i] {
			t.Fatalf("round trip lost %v", vec[i])
		}
	}
	if _, err := decodeFloats([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad length accepted")
	}
}
