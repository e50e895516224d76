package mpi

import (
	"sync"
	"testing"
	"time"

	"riskbench/internal/nsp"
)

// startTCPWorld builds a hub plus size-1 dialled workers on the loopback.
func startTCPWorld(t *testing.T, size int) (*HubComm, []*WorkerComm) {
	t.Helper()
	hub, err := ListenHubWith("127.0.0.1:0", size, WorldOptions{Transport: "tcp"})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	workers := make([]*WorkerComm, 0, size-1)
	for i := 1; i < size; i++ {
		w, err := DialHubWith(hub.Addr(), WorldOptions{Transport: "tcp"})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		workers = append(workers, w)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() {
		hub.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return hub, workers
}

func TestTCPHandshakeAssignsRanks(t *testing.T) {
	hub, workers := startTCPWorld(t, 4)
	if hub.Rank() != 0 || hub.Size() != 4 {
		t.Fatalf("hub rank/size = %d/%d", hub.Rank(), hub.Size())
	}
	seen := map[int]bool{}
	for _, w := range workers {
		if w.Size() != 4 {
			t.Fatalf("worker size %d", w.Size())
		}
		if w.Rank() < 1 || w.Rank() > 3 || seen[w.Rank()] {
			t.Fatalf("bad rank %d", w.Rank())
		}
		seen[w.Rank()] = true
	}
}

func TestTCPMasterWorkerRoundTrip(t *testing.T) {
	hub, workers := startTCPWorld(t, 3)
	for _, w := range workers {
		go func(w *WorkerComm) {
			data, st, err := w.Recv(0, AnyTag)
			if err != nil {
				return
			}
			_ = w.Send(append(data, byte(w.Rank())), 0, st.Tag)
		}(w)
	}
	for r := 1; r <= 2; r++ {
		if err := hub.Send([]byte{42}, r, 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		data, st, err := hub.Recv(AnySource, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 2 || data[0] != 42 || int(data[1]) != st.Source {
			t.Fatalf("echo mismatch: % x from %d", data, st.Source)
		}
	}
}

func TestTCPWorkerToWorkerViaHub(t *testing.T) {
	_, workers := startTCPWorld(t, 3)
	w1, w2 := workers[0], workers[1]
	go func() {
		_ = w1.Send([]byte("peer"), w2.Rank(), 9)
	}()
	data, st, err := w2.Recv(w1.Rank(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "peer" || st.Source != w1.Rank() {
		t.Fatalf("got %q from %d", data, st.Source)
	}
}

func TestTCPObjectTransmission(t *testing.T) {
	hub, workers := startTCPWorld(t, 2)
	h := nsp.NewHash()
	h.Set("A", nsp.RowVec(3.14, 2.71))
	h.Set("msg", nsp.Str("over tcp"))
	go func() {
		if err := SendObj(hub, h, 1, 2); err != nil {
			t.Error(err)
		}
	}()
	got, _, err := RecvObj(workers[0], 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatal("object corrupted over TCP")
	}
}

func TestTCPLargeMessage(t *testing.T) {
	hub, workers := startTCPWorld(t, 2)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	go func() {
		if err := hub.Send(big, 1, 1); err != nil {
			t.Error(err)
		}
	}()
	data, _, err := workers[0].Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(big) {
		t.Fatalf("got %d bytes, want %d", len(data), len(big))
	}
	for i := 0; i < len(big); i += 100003 {
		if data[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestTCPConcurrentTraffic(t *testing.T) {
	hub, workers := startTCPWorld(t, 5)
	const per = 25
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *WorkerComm) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Send([]byte{byte(w.Rank()), byte(i)}, 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	counts := map[int]int{}
	for i := 0; i < 4*per; i++ {
		data, st, err := hub.Recv(AnySource, 1)
		if err != nil {
			t.Fatal(err)
		}
		if int(data[0]) != st.Source {
			t.Fatal("source mismatch")
		}
		counts[st.Source]++
	}
	for r := 1; r <= 4; r++ {
		if counts[r] != per {
			t.Fatalf("rank %d delivered %d of %d", r, counts[r], per)
		}
	}
	wg.Wait()
}

func TestTCPCloseUnblocksWorker(t *testing.T) {
	hub, workers := startTCPWorld(t, 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := workers[0].Recv(0, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	hub.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker Recv returned nil after hub close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker Recv did not unblock when hub closed")
	}
}

func TestHubRejectsTooSmallWorld(t *testing.T) {
	if _, err := ListenHubWith("127.0.0.1:0", 1, WorldOptions{Transport: "tcp"}); err == nil {
		t.Fatal("size-1 hub accepted")
	}
}
