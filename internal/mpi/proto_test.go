package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// fastHello keeps the v1-classification quiet period short in tests.
const fastHello = 50 * time.Millisecond

// startWorldWith builds a hub plus size-1 dialled workers with explicit
// per-endpoint options, for exercising mixed-version worlds.
func startWorldWith(t *testing.T, size int, hubOpts, workerOpts WorldOptions) (*HubComm, []*WorkerComm) {
	t.Helper()
	if hubOpts.HelloWait == 0 {
		hubOpts.HelloWait = fastHello
	}
	hub, err := ListenHubWith("", size, hubOpts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()
	workers := make([]*WorkerComm, 0, size-1)
	for i := 1; i < size; i++ {
		workerOpts := workerOpts
		workerOpts.Transport = hubOpts.Transport
		w, err := DialHubWith(hub.Addr(), workerOpts)
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

func TestHelloRoundTrip(t *testing.T) {
	for _, info := range []peerInfo{
		{proto: ProtoV1, caps: 0},
		{proto: ProtoV2, caps: CapSpans},
		{proto: ProtoV2, caps: AllCaps},
	} {
		got, err := decodeHello(encodeHello(info))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", info, err)
		}
		if got != info {
			t.Fatalf("hello round trip: got %+v, want %+v", got, info)
		}
	}
}

// helloMalformed is every known-bad hello payload; FuzzDecodeHello seeds
// from it too.
func helloMalformed() map[string][]byte {
	return map[string][]byte{
		"empty":          {},
		"short":          []byte("HEL"),
		"bad magic":      append([]byte("NOPE"), 0, 2, 0, 0),
		"version zero":   append(helloMagic[:], 0, 0, 0, 0),
		"truncated list": append(helloMagic[:], 0, 2, 0, 1),
		"truncated name": append(helloMagic[:], 0, 2, 0, 1, 10, 'x'),
	}
}

func TestHelloMalformed(t *testing.T) {
	for name, payload := range helloMalformed() {
		if _, err := decodeHello(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: decodeHello = %v, want ErrProtocol", name, err)
		}
	}
}

// TestHelloUnknownCapSkipped checks forward compatibility: a future
// peer's unknown capability names must parse cleanly and fold out of the
// negotiated set instead of failing the handshake.
func TestHelloUnknownCapSkipped(t *testing.T) {
	payload := append([]byte{}, helloMagic[:]...)
	payload = binary.BigEndian.AppendUint16(payload, 3) // a future version
	payload = binary.BigEndian.AppendUint16(payload, 2)
	payload = append(payload, byte(len("spans")))
	payload = append(payload, "spans"...)
	payload = append(payload, byte(len("quantum")))
	payload = append(payload, "quantum"...)
	info, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.proto != 3 || info.caps != CapSpans {
		t.Fatalf("got %+v, want proto 3 caps spans", info)
	}
	settled := negotiate(peerInfo{proto: ProtoV2, caps: AllCaps}, info)
	if settled.proto != ProtoV2 || settled.caps != CapSpans {
		t.Fatalf("negotiated %+v, want proto 2 caps spans", settled)
	}
}

// TestCompatNegotiationMatrix pins the per-connection outcome for every
// pairing of adjacent protocol versions: same-version pairs keep the
// full feature set (v1 by legacy assumption, v2 by explicit handshake)
// while mixed pairs downgrade to the baseline on whichever side knows
// the peer might not understand the extras.
func TestCompatNegotiationMatrix(t *testing.T) {
	type view struct {
		proto int
		caps  CapSet
	}
	cases := []struct {
		name        string
		hubProto    int
		workerProto int
		hubView     view // the hub's negotiated view of the worker
		workerView  view // the worker's negotiated view of the hub
	}{
		{"v2 hub, v2 worker", ProtoV2, ProtoV2, view{ProtoV2, AllCaps}, view{ProtoV2, AllCaps}},
		{"v2 hub, v1 worker", ProtoV2, ProtoV1, view{ProtoV1, 0}, view{ProtoV1, AllCaps}},
		{"v1 hub, v2 worker", ProtoV1, ProtoV2, view{ProtoV1, AllCaps}, view{ProtoV1, 0}},
		{"v1 hub, v1 worker", ProtoV1, ProtoV1, view{ProtoV1, AllCaps}, view{ProtoV1, AllCaps}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub, workers := startWorldWith(t, 2,
				WorldOptions{Transport: "inproc", Proto: tc.hubProto},
				WorldOptions{Proto: tc.workerProto})
			if got := (view{hub.PeerProto(1), hub.PeerCaps(1)}); got != tc.hubView {
				t.Errorf("hub view of worker = %+v, want %+v", got, tc.hubView)
			}
			w := workers[0]
			if got := (view{w.PeerProto(0), w.PeerCaps(0)}); got != tc.workerView {
				t.Errorf("worker view of hub = %+v, want %+v", got, tc.workerView)
			}
			// The mixed world must still move application frames.
			go func() {
				if data, st, err := w.Recv(0, AnyTag); err == nil {
					_ = w.Send(data, 0, st.Tag)
				}
			}()
			if err := hub.Send([]byte("ping"), 1, 7); err != nil {
				t.Fatal(err)
			}
			data, _, err := hub.Recv(1, 7)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "ping" {
				t.Fatalf("echo = %q", data)
			}
		})
	}
}

// TestCompatCapabilityIntersection checks that announced capability sets
// intersect rather than merge.
func TestCompatCapabilityIntersection(t *testing.T) {
	hub, workers := startWorldWith(t, 2,
		WorldOptions{Transport: "inproc", Proto: ProtoV2, Caps: CapSpans},
		WorldOptions{Proto: ProtoV2})
	if got := hub.PeerCaps(1); got != CapSpans {
		t.Errorf("hub caps = %v, want spans only", got)
	}
	if got := workers[0].PeerCaps(0); got != CapSpans {
		t.Errorf("worker caps = %v, want spans only", got)
	}
}

// TestCommWithoutNegotiator checks the package helpers' fallback: an
// in-process world has no handshake and both ends are the same build, so
// everything is assumed implemented.
func TestCommWithoutNegotiator(t *testing.T) {
	world := NewLocalWorld(2)
	defer world.Close()
	c := world.Comm(0)
	if got := PeerCaps(c, 1); got != AllCaps {
		t.Errorf("PeerCaps on local world = %v, want AllCaps", got)
	}
}

func TestOversizedFrameIsProtocolError(t *testing.T) {
	var buf bytes.Buffer
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[12:], maxFrame+1)
	buf.Write(hdr[:])
	fc := newFrameCodec(ProtoLatest)
	_, _, _, _, err := fc.readFrame(&buf)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized frame read = %v, want ErrProtocol", err)
	}
}

// TestHubDropsOversizedPeer is the satellite acceptance test: a peer
// announcing an oversized frame must have its connection closed — the
// stream is unsynchronized — while the hub keeps serving the healthy
// ranks.
func TestHubDropsOversizedPeer(t *testing.T) {
	hub, err := ListenHubWith("127.0.0.1:0", 3, WorldOptions{HelloWait: fastHello})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	accepted := make(chan error, 1)
	go func() { accepted <- hub.WaitWorkers() }()

	good, err := DialHubWith(hub.Addr(), WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// A raw connection that handshakes correctly, then declares a frame
	// larger than the protocol allows.
	bad, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte(wireMagic)); err != nil {
		t.Fatal(err)
	}
	var reply [8]byte
	if _, err := io.ReadFull(bad, reply[:]); err != nil {
		t.Fatal(err)
	}
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[12:], maxFrame+1)
	if _, err := bad.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}

	// The offender gets dropped: its connection reaches EOF once the
	// hub's router rejects the frame. Drain the hub's hello frame first.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	discard := make([]byte, 256)
	for {
		if _, err := bad.Read(discard); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("oversized peer's connection was not closed")
			}
			break // EOF or reset: the hub dropped us
		}
	}

	// The healthy rank keeps working.
	go func() {
		if data, st, err := good.Recv(0, AnyTag); err == nil {
			_ = good.Send(data, 0, st.Tag)
		}
	}()
	if err := hub.Send([]byte("alive"), good.Rank(), 4); err != nil {
		t.Fatal(err)
	}
	data, _, err := hub.Recv(good.Rank(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "alive" {
		t.Fatalf("echo = %q", data)
	}
}

// TestHelloInvisibleToV1Mailbox documents why the handshake is backward
// compatible: a hello's addressing (source and tag -2) can never match
// the named receives the farm protocol performs, so a v1 worker that
// mailboxed one would still never see it.
func TestHelloInvisibleToV1Mailbox(t *testing.T) {
	mb := newMailbox()
	mb.put(message{source: helloSrc, tag: helloTag, data: encodeHello(peerInfo{proto: ProtoV2, caps: AllCaps})})
	mb.put(message{source: 0, tag: 1, data: []byte("task")})
	m, err := mb.wait(0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.data) != "task" {
		t.Fatalf("recv = %q, want the task frame", m.data)
	}
}

// TestMailboxLostPeer pins what a receive does once a peer is lost: what
// the peer sent before it dropped is still delivered, then a wait naming
// it — or naming nobody — fails with the first loss, and a wait on
// another rank goes on waiting.
func TestMailboxLostPeer(t *testing.T) {
	mb := newMailbox()
	mb.put(message{source: 2, tag: 1, data: []byte("queued")})
	mb.lose(2, io.EOF)
	mb.lose(3, io.ErrUnexpectedEOF)
	if m, err := mb.wait(AnySource, 1, true); err != nil || string(m.data) != "queued" {
		t.Fatalf("queued message from the lost rank: %q, %v", m.data, err)
	}
	for _, source := range []int{2, AnySource} {
		_, err := mb.wait(source, 1, false)
		var lost *LostError
		if !errors.As(err, &lost) || lost.Rank != 2 || !errors.Is(err, io.EOF) {
			t.Errorf("wait(%d) after rank 2 dropped = %v, want its LostError", source, err)
		}
	}
	go mb.put(message{source: 1, tag: 1, data: []byte("alive")})
	if m, err := mb.wait(1, 1, true); err != nil || string(m.data) != "alive" {
		t.Errorf("wait on a live rank: %q, %v", m.data, err)
	}
}

func TestNegotiateIsCommutativeOnCaps(t *testing.T) {
	a := peerInfo{proto: ProtoV2, caps: CapSpans}
	b := peerInfo{proto: ProtoV2, caps: AllCaps}
	ab, ba := negotiate(a, b), negotiate(b, a)
	if ab != ba {
		t.Fatalf("negotiate not symmetric: %+v vs %+v", ab, ba)
	}
	if ab.caps != CapSpans {
		t.Fatalf("caps = %v, want intersection (spans)", ab.caps)
	}
}

func TestCapSetString(t *testing.T) {
	for want, s := range map[string]CapSet{
		"none":                  0,
		"spans":                 CapSpans,
		"hasdelta":              CapHasDelta,
		"events":                CapEvents,
		"hasdelta,spans":        CapSpans | CapHasDelta,
		"events,hasdelta,spans": AllCaps,
	} {
		if got := s.String(); got != want {
			t.Errorf("CapSet(%d).String() = %q, want %q", s, got, want)
		}
	}
}
