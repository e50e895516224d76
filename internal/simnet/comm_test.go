package simnet

import (
	"math"
	"reflect"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
)

// flatLink has zero costs so logical tests are unpolluted by timing.
var flatLink = LinkConfig{}

func TestSimSendRecv(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	var got []byte
	var st mpi.Status
	w.Go(0, "sender", func(c *Comm) {
		if err := c.Send([]byte("virtual"), 1, 4); err != nil {
			t.Error(err)
		}
	})
	w.Go(1, "receiver", func(c *Comm) {
		var err error
		got, st, err = c.Recv(0, 4)
		if err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "virtual" || st.Source != 0 || st.Tag != 4 || st.Bytes != 7 {
		t.Fatalf("got %q %+v", got, st)
	}
}

func TestSimMessageTiming(t *testing.T) {
	link := LinkConfig{Latency: 0.5, Bandwidth: 1000, SendOverhead: 0.1, RecvOverhead: 0.05}
	e := NewEngine()
	w := NewWorld(e, 2, link)
	var sendDone, recvDone float64
	w.Go(0, "sender", func(c *Comm) {
		if err := c.Send(make([]byte, 1000), 1, 0); err != nil { // 1 s of transfer
			t.Error(err)
		}
		sendDone = c.Proc().Now()
	})
	w.Go(1, "receiver", func(c *Comm) {
		if _, _, err := c.Recv(0, 0); err != nil {
			t.Error(err)
		}
		recvDone = c.Proc().Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Sender: overhead 0.1 + transfer 1.0 = 1.1.
	if math.Abs(sendDone-1.1) > 1e-12 {
		t.Errorf("send done at %v, want 1.1", sendDone)
	}
	// Receiver: arrival 1.1 + latency 0.5, + recv overhead 0.05 = 1.65.
	if math.Abs(recvDone-1.65) > 1e-12 {
		t.Errorf("recv done at %v, want 1.65", recvDone)
	}
}

func TestSimProbeDoesNotConsume(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	w.Go(0, "sender", func(c *Comm) {
		_ = c.Send([]byte{1, 2, 3}, 1, 7)
	})
	w.Go(1, "receiver", func(c *Comm) {
		st, err := c.Probe(mpi.AnySource, mpi.AnyTag)
		if err != nil || st.Bytes != 3 {
			t.Errorf("probe %v %v", st, err)
		}
		data, _, err := c.Recv(st.Source, st.Tag)
		if err != nil || len(data) != 3 {
			t.Errorf("recv after probe: %v %v", data, err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimTagSelectivity(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	w.Go(0, "sender", func(c *Comm) {
		_ = c.Send([]byte("one"), 1, 1)
		_ = c.Send([]byte("two"), 1, 2)
	})
	w.Go(1, "receiver", func(c *Comm) {
		d2, _, err := c.Recv(0, 2)
		if err != nil || string(d2) != "two" {
			t.Errorf("tag 2: %q %v", d2, err)
		}
		d1, _, err := c.Recv(0, 1)
		if err != nil || string(d1) != "one" {
			t.Errorf("tag 1: %q %v", d1, err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimComputeOccupiesWorker(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 1, flatLink)
	w.Go(0, "w", func(c *Comm) {
		c.Compute(42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Fatalf("clock %v, want 42", e.Now())
	}
}

func TestSimObjectTransmission(t *testing.T) {
	// The mpi object helpers must work over the simulated transport too.
	e := NewEngine()
	w := NewWorld(e, 2, DefaultGigE)
	h := nsp.NewHash()
	h.Set("K", nsp.Scalar(100))
	h.Set("method", nsp.Str("CF_Call"))
	w.Go(0, "m", func(c *Comm) {
		if err := mpi.SendObj(c, h, 1, 3); err != nil {
			t.Error(err)
		}
	})
	w.Go(1, "s", func(c *Comm) {
		o, _, err := mpi.RecvObj(c, 0, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if !o.Equal(h) {
			t.Error("object corrupted in simulation")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimRecvBeforeSendBlocks(t *testing.T) {
	// Receiver posts first; sender arrives later; both finish.
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	var recvAt float64
	w.Go(1, "receiver", func(c *Comm) {
		if _, _, err := c.Recv(mpi.AnySource, mpi.AnyTag); err != nil {
			t.Error(err)
		}
		recvAt = c.Proc().Now()
	})
	w.Go(0, "sender", func(c *Comm) {
		c.Proc().Sleep(3)
		_ = c.Send([]byte("late"), 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 3 {
		t.Fatalf("recv completed at %v, want 3", recvAt)
	}
}

func TestSimDeadlockWhenNoSender(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	w.Go(1, "receiver", func(c *Comm) {
		_, _, _ = c.Recv(0, 0)
	})
	dl, ok := e.Run().(*ErrDeadlock)
	if !ok {
		t.Fatal("expected deadlock")
	}
	// The reason is formatted here, from what the Comm stored.
	if want := []string{"receiver (recv from 0 tag 0)"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Errorf("deadlock report %q, want %q", dl.Blocked, want)
	}
}

func TestNFSCacheSemantics(t *testing.T) {
	cfg := NFSConfig{ServerTime: 1, Bandwidth: 1000, Latency: 0.5, CacheHitTime: 0.001}
	e := NewEngine()
	fs := NewNFS(cfg)
	var times []float64
	e.spawn("client", func(p *Proc) {
		start := p.Now()
		fs.Read(p, 1, "a.bin", 1000) // miss: 0.5 + (1 + 1) = 2.5
		times = append(times, p.Now()-start)
		start = p.Now()
		fs.Read(p, 1, "a.bin", 1000) // hit: 0.001
		times = append(times, p.Now()-start)
		start = p.Now()
		fs.Read(p, 2, "a.bin", 1000) // different node: miss again
		times = append(times, p.Now()-start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(times[0]-2.5) > 1e-12 {
		t.Errorf("first read %v, want 2.5", times[0])
	}
	if math.Abs(times[1]-0.001) > 1e-12 {
		t.Errorf("cached read %v, want 0.001", times[1])
	}
	if math.Abs(times[2]-2.5) > 1e-12 {
		t.Errorf("other-node read %v, want 2.5", times[2])
	}
	hits, misses := fs.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats %d/%d", hits, misses)
	}
}

func TestNFSServerContention(t *testing.T) {
	// Two cold clients reading different files queue at the server.
	cfg := NFSConfig{ServerTime: 1, Latency: 0, CacheHitTime: 0}
	e := NewEngine()
	fs := NewNFS(cfg)
	var finish []float64
	for i := 0; i < 2; i++ {
		node := i + 1
		e.spawn("client", func(p *Proc) {
			fs.Read(p, node, "file", 0)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finish[0] != 1 || finish[1] != 2 {
		t.Fatalf("finish %v, want [1 2]", finish)
	}
}

func TestNFSWarm(t *testing.T) {
	cfg := NFSConfig{ServerTime: 10, CacheHitTime: 0.01}
	e := NewEngine()
	fs := NewNFS(cfg)
	fs.Warm([]int{1, 2}, []string{"x", "y"})
	e.spawn("c", func(p *Proc) {
		fs.Read(p, 1, "x", 100)
		fs.Read(p, 2, "y", 100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() > 0.05 {
		t.Fatalf("warm reads took %v", e.Now())
	}
	if hits, misses := fs.Stats(); hits != 2 || misses != 0 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestNodeSpeedStretchesCompute(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 2, flatLink)
	w.SetSpeed(1, 0.5)
	var fast, slow float64
	w.Go(0, "fast", func(c *Comm) {
		c.Compute(10)
		fast = c.Proc().Now()
	})
	w.Go(1, "slow", func(c *Comm) {
		c.Compute(10)
		slow = c.Proc().Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fast != 10 || slow != 20 {
		t.Fatalf("fast %v slow %v, want 10 and 20", fast, slow)
	}
	if w.BusyTime(0) != 10 || w.BusyTime(1) != 20 {
		t.Fatalf("busy times %v %v", w.BusyTime(0), w.BusyTime(1))
	}
	if u := w.Utilization(1); math.Abs(u-1.0) > 1e-12 {
		t.Fatalf("slow node utilisation %v, want 1", u)
	}
	if u := w.Utilization(0); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("fast node utilisation %v, want 0.5 (idle half the run)", u)
	}
}

func TestSetSpeedRejectsNonPositive(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 1, flatLink)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.SetSpeed(0, 0)
}

func TestComputeZeroIsFree(t *testing.T) {
	e := NewEngine()
	w := NewWorld(e, 1, flatLink)
	w.Go(0, "p", func(c *Comm) {
		c.Compute(0)
		c.Compute(-1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || w.BusyTime(0) != 0 {
		t.Fatal("zero compute advanced the clock")
	}
}

// pingPong runs a two-rank exchange with every cost non-zero, so each
// round blocks in two receives and sleeps through two sends, two receive
// overheads and a compute.
func pingPong(t *testing.T, e *Engine, rounds int) {
	w := NewWorld(e, 2, LinkConfig{Latency: 1e-4, Bandwidth: 1e8, SendOverhead: 1e-5, RecvOverhead: 1e-5})
	msg := make([]byte, 64)
	w.Go(0, "ping", func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if err := c.Send(msg, 1, 7); err != nil {
				t.Error(err)
			}
			if _, _, err := c.Recv(1, 7); err != nil {
				t.Error(err)
			}
		}
	})
	w.Go(1, "pong", func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Recv(0, 7); err != nil {
				t.Error(err)
			}
			c.Compute(1e-3)
			if err := c.Send(msg, 0, 7); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNilTracerIsFree: a simulated message costs only its events and its
// copy, with nothing formatted for a reader that is not there. A ping-pong
// round is two sends, two receives and a compute: five sleeps, two
// deliveries and two wake-ups, nine events at three allocations each (the
// closure, its heap slot going in and coming out) plus the two message
// copies, 29 in all. A trace detail per send, receive and compute and a
// deadlock reason per sleep and block used to add eighteen to that.
func TestNilTracerIsFree(t *testing.T) {
	const rounds = 500
	cost := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { pingPong(t, NewEngine(), rounds) })
	}
	perRound := (cost(2*rounds) - cost(rounds)) / rounds
	t.Logf("%.1f allocations per untraced ping-pong round", perRound)
	if perRound > 32 {
		t.Errorf("an untraced ping-pong round costs %.1f allocations, want <= 32", perRound)
	}
}
