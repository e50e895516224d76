package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/nsp"
)

func TestLookupTransport(t *testing.T) {
	for _, name := range []string{"tcp", "unix", "inproc"} {
		tr, err := LookupTransport(name)
		if err != nil {
			t.Fatalf("LookupTransport(%q): %v", name, err)
		}
		if tr.Name() != name {
			t.Fatalf("LookupTransport(%q).Name() = %q", name, tr.Name())
		}
	}
	if _, err := LookupTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport looked up without error")
	} else if !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("error %q does not name the transport", err)
	}
	names := Transports()
	for _, want := range []string{"inproc", "tcp", "unix"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("Transports() = %v, missing %q", names, want)
		}
	}
}

// TestEmptyTransportIsUnknown checks that "" names no transport at any
// entry point: a lookup, a hub and a worker each fail with the unknown
// transport error before touching a socket.
func TestEmptyTransportIsUnknown(t *testing.T) {
	const want = `mpi: unknown transport ""`
	_, lookupErr := LookupTransport("")
	_, listenErr := ListenHubWith("127.0.0.1:0", 2, WorldOptions{})
	_, dialErr := DialHubWith("127.0.0.1:1", WorldOptions{})
	for call, err := range map[string]error{"LookupTransport": lookupErr, "ListenHubWith": listenErr, "DialHubWith": dialErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s with no transport: err = %v, want %s", call, err, want)
		}
	}
}

// startTransportWorld is startTCPWorld generalized over the transports.
func startTransportWorld(t *testing.T, transport string, size int) (*HubComm, []*WorkerComm) {
	t.Helper()
	return startWorldWith(t, size, WorldOptions{Transport: transport}, WorldOptions{})
}

// TestTransportWorlds runs the same correctness suite over every
// built-in transport: handshake rank assignment, hub round trips,
// worker-to-worker routing and object transmission.
func TestTransportWorlds(t *testing.T) {
	for _, transport := range []string{"tcp", "unix", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			hub, workers := startTransportWorld(t, transport, 4)
			if hub.Rank() != 0 || hub.Size() != 4 {
				t.Fatalf("hub rank/size = %d/%d", hub.Rank(), hub.Size())
			}
			seen := map[int]bool{}
			for _, w := range workers {
				if w.Size() != 4 || w.Rank() < 1 || w.Rank() > 3 || seen[w.Rank()] {
					t.Fatalf("bad worker rank/size %d/%d", w.Rank(), w.Size())
				}
				seen[w.Rank()] = true
			}

			// Hub → worker → hub echoes, all ranks concurrently.
			var wg sync.WaitGroup
			for _, w := range workers {
				wg.Add(1)
				go func(w *WorkerComm) {
					defer wg.Done()
					data, st, err := w.Recv(0, AnyTag)
					if err != nil {
						return
					}
					_ = w.Send(append(data, byte(w.Rank())), 0, st.Tag)
				}(w)
			}
			for r := 1; r <= 3; r++ {
				if err := hub.Send([]byte{9}, r, 5); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				data, st, err := hub.Recv(AnySource, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) != 2 || data[0] != 9 || int(data[1]) != st.Source {
					t.Fatalf("echo mismatch: % x from %d", data, st.Source)
				}
			}
			wg.Wait()

			// Worker to worker via the hub router.
			w1, w2 := workers[0], workers[1]
			go func() { _ = w1.Send([]byte("peer"), w2.Rank(), 9) }()
			data, st, err := w2.Recv(w1.Rank(), 9)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "peer" || st.Source != w1.Rank() {
				t.Fatalf("got %q from %d", data, st.Source)
			}

			// Structured objects survive the framed wire.
			h := nsp.NewHash()
			h.Set("A", nsp.RowVec(3.14, 2.71))
			h.Set("msg", nsp.Str("over "+transport))
			go func() { _ = SendObj(hub, h, 1, 2) }()
			got, _, err := RecvObj(workers[0], 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(h) {
				t.Fatalf("object corrupted over %s", transport)
			}
		})
	}
}

// TestUnixEphemeralSocket checks the unix transport's ephemeral
// addressing: an empty address binds a fresh socket under the temp
// directory, and closing the hub unlinks it.
func TestUnixEphemeralSocket(t *testing.T) {
	hub, err := ListenHubWith("", 2, WorldOptions{Transport: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	path := hub.Addr()
	info, err := os.Lstat(path)
	if err != nil {
		t.Fatalf("socket path %q: %v", path, err)
	}
	if info.Mode()&os.ModeSocket == 0 {
		t.Fatalf("%q is not a socket", path)
	}
	hub.Close()
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatalf("socket %q not unlinked on close (err=%v)", path, err)
	}
}

// TestTransportCloseUnblocksWorker generalizes the shutdown contract:
// closing the hub must unblock a worker parked in Recv, on any
// transport.
func TestTransportCloseUnblocksWorker(t *testing.T) {
	for _, transport := range []string{"tcp", "unix", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			hub, workers := startTransportWorld(t, transport, 2)
			done := make(chan error, 1)
			go func() {
				_, _, err := workers[0].Recv(0, 0)
				done <- err
			}()
			hub.Close()
			if err := <-done; err == nil {
				t.Fatal("worker Recv returned nil after hub close")
			}
		})
	}
}

// TestFrameCodecAllocationFree is the codec's allocation budget: once
// the scratch buffer has seen a frame of the size, neither reading nor
// writing a frame allocates — the header stages on the codec and the
// payload lands in the reused scratch.
func TestFrameCodecAllocationFree(t *testing.T) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, 0, 3, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	fc := newFrameCodec(ProtoLatest)
	r := bytes.NewReader(frame)
	read := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, _, _, _, err := fc.readFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(100, func() {
		if err := fc.writeFrame(io.Discard, 1, 0, 3, payload); err != nil {
			t.Fatal(err)
		}
	})
	if read != 0 || write != 0 {
		t.Errorf("frame codec allocates %v per read and %v per write, want 0 and 0", read, write)
	}
}

// TestReadFrameAllocatesWhatArrives: a frame header is sixteen bytes a
// peer can send for nothing, so a claimed length is read in bounded steps
// and costs what actually follows it. Claiming maxFrame and then going
// quiet used to cost the reader 64 MiB; an honest frame past
// maxRetainedBuf still arrives whole.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hostile bytes.Buffer
	if err := writeFrame(&hostile, 1, 0, 3, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	frame := hostile.Bytes()
	binary.BigEndian.PutUint32(frame[12:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err := newFrameCodec(ProtoLatest).readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame claiming %d bytes and holding 10: err = %v, want a short read", maxFrame, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a frame claiming %d bytes and holding 10 made readFrame allocate %d", maxFrame, got)
	}

	want := make([]byte, 3<<20)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var honest bytes.Buffer
	if err := writeFrame(&honest, 2, 1, 9, want); err != nil {
		t.Fatal(err)
	}
	dest, src, tag, got, err := newFrameCodec(ProtoLatest).readFrame(&honest)
	if err != nil || dest != 2 || src != 1 || tag != 9 || !bytes.Equal(got, want) {
		t.Errorf("a %d-byte frame read back as dest %d src %d tag %d, %d bytes, %v", len(want), dest, src, tag, len(got), err)
	}
}

// BenchmarkFrameCodecRead measures the codec's receive path: after the
// scratch buffer warms up, reading a frame should allocate nothing.
func BenchmarkFrameCodecRead(b *testing.B) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, 0, 3, payload); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	fc := newFrameCodec(ProtoLatest)
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, _, _, _, err := fc.readFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameCodecWrite measures the send path, which should never
// allocate.
func BenchmarkFrameCodecWrite(b *testing.B) {
	payload := make([]byte, 4096)
	fc := newFrameCodec(ProtoLatest)
	b.SetBytes(int64(len(payload)) + 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fc.writeFrame(io.Discard, 1, 0, 3, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHubRoundTrip measures a full request/response over each real
// transport: one 4 KiB frame out, one back, through the framed hub.
func BenchmarkHubRoundTrip(b *testing.B) {
	for _, transport := range []string{"tcp", "unix", "inproc"} {
		b.Run(transport, func(b *testing.B) {
			hub, err := ListenHubWith("", 2, WorldOptions{Transport: transport})
			if err != nil {
				b.Fatal(err)
			}
			defer hub.Close()
			accepted := make(chan error, 1)
			go func() { accepted <- hub.WaitWorkers() }()
			w, err := DialHubWith(hub.Addr(), WorldOptions{Transport: transport})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if err := <-accepted; err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					data, st, err := w.Recv(0, AnyTag)
					if err != nil {
						return
					}
					if err := w.Send(data, 0, st.Tag); err != nil {
						return
					}
				}
			}()
			payload := make([]byte, 4096)
			b.SetBytes(2 * int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hub.Send(payload, 1, 1); err != nil {
					b.Fatal(err)
				}
				if _, _, err := hub.Recv(1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
