package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"riskbench/internal/telemetry"
)

// wireMagic opens every handshake so stray connections are rejected
// early. It is the same six bytes for every protocol version — version
// negotiation happens after the magic, over control frames a v1 peer
// cannot see — so any worker can join any hub.
const wireMagic = "RBMPI1"

// defaultHelloWait bounds how long a v2 hub waits for a worker's hello
// before concluding the worker is a v1 build. A v2 worker answers the
// hub's hello immediately, so the wait is only ever paid once per
// genuinely-old worker at connection setup.
const defaultHelloWait = 500 * time.Millisecond

// WorldOptions configures a hub or worker endpoint: which transport
// carries the frames and which protocol version this endpoint speaks.
type WorldOptions struct {
	// Transport names the transport: "tcp", "unix" or "inproc". It has
	// no default; an empty name fails as an unknown transport.
	Transport string
	// Proto is the protocol version this endpoint speaks (ProtoV1 or
	// ProtoV2); 0 selects ProtoLatest. A ProtoV1 endpoint reproduces the
	// pre-versioning wire behaviour exactly — the compatibility matrix
	// pins old↔new pairs with it.
	Proto int
	// Caps is the capability set to announce; 0 with Proto unset (or
	// >= ProtoV2) announces AllCaps. ProtoV1 endpoints announce nothing
	// — v1 had no way to — and are assumed AllCaps by other v1 peers,
	// which is exactly the implicit contract versioning replaces.
	//lint:allow testonly the compatibility matrix announces reduced capability sets with it
	Caps CapSet
	// HelloWait bounds the hub's wait for a worker hello during
	// classification (default 500ms). Workers ignore it.
	//lint:allow testonly the protocol tests shorten the wait for their silent legacy peers
	HelloWait time.Duration
}

func (o WorldOptions) local() peerInfo {
	proto := o.Proto
	if proto == 0 {
		proto = ProtoLatest
	}
	caps := o.Caps
	if caps == 0 && proto >= ProtoV2 {
		caps = AllCaps
	}
	if proto < ProtoV2 {
		caps = 0 // v1 endpoints cannot announce capabilities
	}
	return peerInfo{proto: proto, caps: caps}
}

func (o WorldOptions) helloWait() time.Duration {
	if o.HelloWait > 0 {
		return o.HelloWait
	}
	return defaultHelloWait
}

// conn wraps a transport connection with a write lock and buffered
// writer so multiple goroutines can send frames. The write-side codec
// is guarded by the same mutex; each conn's reader goroutine owns a
// separate one.
type conn struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
	fc frameCodec
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, w: bufio.NewWriter(c)}
}

func (cn *conn) send(dest, src, tag int, payload []byte) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if err := cn.fc.writeFrame(cn.w, dest, src, tag, payload); err != nil {
		return err
	}
	return cn.w.Flush()
}

// HubComm is rank 0 of a framed-transport world: it listens, hands out
// ranks, negotiates protocol versions, routes worker-to-worker frames
// and delivers dest-0 frames to its own mailbox.
type HubComm struct {
	inbox
	size      int
	ln        net.Listener
	workers   []*conn // index 1..size-1
	local     peerInfo
	helloWait time.Duration
	// peers[rank] is the negotiated protocol/capability view of each
	// worker. Written only before WaitWorkers returns (classification),
	// immutable afterwards.
	peers []peerInfo
	// closed suppresses peer-drop events for connections torn down by
	// our own Close — only peers lost while the hub is live are news.
	closed atomic.Bool
	once   sync.Once
	wg     sync.WaitGroup
}

var (
	_ Comm       = (*HubComm)(nil)
	_ Negotiator = (*HubComm)(nil)
)

// ListenHubWith binds a hub listener on addr (which may use port 0)
// over the options' transport and protocol version and returns
// immediately; call WaitWorkers to accept the workers. The two-phase
// split lets callers learn Addr before workers dial in.
func ListenHubWith(addr string, size int, o WorldOptions) (*HubComm, error) {
	if size < 2 {
		return nil, fmt.Errorf("mpi: hub world needs size >= 2, got %d", size)
	}
	tr, err := LookupTransport(o.Transport)
	if err != nil {
		return nil, err
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: hub listen (%s): %w", tr.Name(), err)
	}
	h := &HubComm{
		inbox:     inbox{newMailbox()},
		size:      size,
		ln:        ln,
		workers:   make([]*conn, size),
		local:     o.local(),
		helloWait: o.helloWait(),
		peers:     make([]peerInfo, size),
	}
	for rank := range h.peers {
		h.peers[rank] = h.local.silentPeer() // until (unless) a worker says hello
	}
	return h, nil
}

// WaitWorkers accepts exactly size-1 workers (assigning ranks
// 1..size-1 in connection order), negotiates protocol versions with
// each, and starts the router. It must be called once, before any
// Send/Probe/Recv on the hub. When it returns, every worker's
// negotiated capability set is final — the first batch a master packs
// already sees the downgraded view of old workers.
func (h *HubComm) WaitWorkers() error {
	for rank := 1; rank < h.size; rank++ {
		c, err := h.ln.Accept()
		if err != nil {
			h.Close()
			return fmt.Errorf("mpi: hub accept: %w", err)
		}
		if err := h.handshake(c, rank); err != nil {
			c.Close()
			h.Close()
			return err
		}
		h.workers[rank] = newConn(c)
	}
	// Routers classify their worker's first frame; this barrier makes
	// every classification final before the hub is usable.
	var classified sync.WaitGroup
	for rank := 1; rank < h.size; rank++ {
		h.wg.Add(1)
		classified.Add(1)
		go h.route(rank, &classified)
	}
	classified.Wait()
	return nil
}

// Addr returns the address the hub is listening on — host:port for
// tcp, the socket path for unix, the world name for inproc — useful
// when the listen address was ephemeral.
func (h *HubComm) Addr() string { return h.ln.Addr().String() }

// handshake runs the fixed v1-compatible exchange (magic in, rank/size
// out) and, on a v2 hub, announces this hub's protocol and capabilities
// with a hello control frame a v1 worker will never notice.
func (h *HubComm) handshake(c net.Conn, rank int) error {
	magic := make([]byte, len(wireMagic))
	if _, err := io.ReadFull(c, magic); err != nil {
		return fmt.Errorf("mpi: hub handshake read: %w", err)
	}
	if string(magic) != wireMagic {
		return fmt.Errorf("%w: bad handshake magic %q", ErrProtocol, magic)
	}
	var reply [8]byte
	binary.BigEndian.PutUint32(reply[0:], uint32(rank))
	binary.BigEndian.PutUint32(reply[4:], uint32(h.size))
	if _, err := c.Write(reply[:]); err != nil {
		return fmt.Errorf("mpi: hub handshake write: %w", err)
	}
	if h.local.proto >= ProtoV2 {
		if err := writeFrame(c, helloDest, helloSrc, helloTag, encodeHello(h.local)); err != nil {
			return fmt.Errorf("mpi: hub hello write: %w", err)
		}
	}
	return nil
}

// classify settles the negotiated view of one worker from its first
// frame. A v2 worker answers the hub's hello before anything else, so
// its hello is guaranteed to be first in the stream; a v1 worker sends
// nothing until it has work, so a bounded quiet period means v1. Peek
// is used so a timeout consumes no bytes and the stream stays aligned.
func (h *HubComm) classify(rank int, cn *conn, r *bufio.Reader, fc *frameCodec) error {
	cn.c.SetReadDeadline(telemetry.Deadline(h.helloWait))
	_, peekErr := r.Peek(1)
	cn.c.SetReadDeadline(time.Time{})
	if peekErr != nil {
		if errors.Is(peekErr, os.ErrDeadlineExceeded) {
			return nil // silent: keep the conservative legacy default
		}
		return peekErr
	}
	dest, src, tag, payload, err := fc.readFrame(r)
	if err != nil {
		return err
	}
	if isHello(dest, src, tag, payload) {
		info, err := decodeHello(payload)
		if err != nil {
			return err
		}
		h.peers[rank] = negotiate(h.local, info)
		return nil
	}
	// First frame is application traffic: a legacy worker that spoke
	// early. Deliver it; the conservative default stands.
	h.deliver(dest, src, tag, payload, fc)
	return nil
}

// deliver routes one application frame: hub-bound frames go to the
// mailbox (copied out of the codec's scratch buffer), worker-bound
// frames are forwarded in place with no allocation.
func (h *HubComm) deliver(dest, src, tag int, payload []byte, fc *frameCodec) {
	if dest == 0 {
		h.mbox.put(message{source: src, tag: tag, data: fc.retain(payload)})
		return
	}
	if dest > 0 && dest < h.size {
		if w := h.workers[dest]; w != nil {
			_ = w.send(dest, src, tag, payload) // best effort, like the wire
		}
	}
	// Anything else (including late control frames) is dropped, as v1
	// always did for unroutable destinations.
}

// route reads frames from one worker and forwards them. The first read
// classifies the worker's protocol version; the barrier in WaitWorkers
// holds the hub unusable until every classification lands.
func (h *HubComm) route(rank int, classified *sync.WaitGroup) {
	defer h.wg.Done()
	cn := h.workers[rank]
	// Dropping a peer closes its connection: after a read error —
	// protocol violations especially — the stream is unsynchronized and
	// must not linger half-open. The hub keeps serving the other ranks.
	defer cn.c.Close()
	r := bufio.NewReader(cn.c)
	fc := newFrameCodec(h.local.proto)
	if h.local.proto >= ProtoV2 {
		err := h.classify(rank, cn, r, fc)
		classified.Done()
		if err != nil {
			h.dropped(rank, err)
			return
		}
	} else {
		classified.Done()
	}
	for {
		dest, src, tag, payload, err := fc.readFrame(r)
		if err != nil {
			// Worker gone (or speaking garbage): the deferred close
			// drops it; the hub keeps serving the other ranks.
			h.dropped(rank, err)
			return
		}
		h.deliver(dest, src, tag, payload, fc)
	}
}

// dropped makes the loss of a worker's connection known: an event for the
// flight recorder, and the mailbox told, so a receive only that rank could
// answer fails instead of waiting. Connections torn down by our own Close
// are not news.
func (h *HubComm) dropped(rank int, err error) {
	if !h.closed.Load() {
		emitPeerEvent(rank, err)
		h.mbox.lose(rank, err)
	}
}

// Rank implements Comm.
func (h *HubComm) Rank() int { return 0 }

// Size implements Comm.
func (h *HubComm) Size() int { return h.size }

// PeerProto implements Negotiator: the negotiated protocol version
// with a worker rank.
func (h *HubComm) PeerProto(rank int) int {
	if rank <= 0 || rank >= h.size {
		return ProtoLatest
	}
	return h.peers[rank].proto
}

// PeerCaps implements Negotiator: the negotiated capability set with a
// worker rank.
func (h *HubComm) PeerCaps(rank int) CapSet {
	if rank <= 0 || rank >= h.size {
		return AllCaps
	}
	return h.peers[rank].caps
}

// Send implements Comm.
func (h *HubComm) Send(data []byte, dest, tag int) error {
	if dest <= 0 || dest >= h.size {
		return fmt.Errorf("mpi: hub send to invalid rank %d", dest)
	}
	return h.workers[dest].send(dest, 0, tag, data)
}

// Close implements Comm: it closes the listener and every worker
// connection, unblocking all pending operations everywhere.
func (h *HubComm) Close() error {
	h.once.Do(func() {
		h.closed.Store(true)
		h.ln.Close()
		for _, w := range h.workers {
			if w != nil {
				w.c.Close()
			}
		}
		h.mbox.close()
		h.wg.Wait()
	})
	return nil
}

// WorkerComm is a rank >= 1 endpoint connected to a hub.
type WorkerComm struct {
	inbox
	rank  int
	size  int
	cn    *conn
	local peerInfo
	// peer packs the negotiated view of the hub (proto<<32 | caps),
	// written by the receive loop when the hub's hello arrives — always
	// before the first application frame, by stream order — and read by
	// whoever asks PeerCaps.
	peer atomic.Uint64
	// closed suppresses the peer-drop event when the read error was
	// caused by our own Close.
	closed atomic.Bool
	once   sync.Once
}

var (
	_ Comm       = (*WorkerComm)(nil)
	_ Negotiator = (*WorkerComm)(nil)
)

// DialHubWith connects to a hub over the options' transport and
// protocol version, learns this process's rank and the world size from
// the handshake, and starts the receive loop.
func DialHubWith(addr string, o WorldOptions) (*WorkerComm, error) {
	tr, err := LookupTransport(o.Transport)
	if err != nil {
		return nil, err
	}
	c, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: dial hub (%s): %w", tr.Name(), err)
	}
	if _, err := c.Write([]byte(wireMagic)); err != nil {
		c.Close()
		return nil, fmt.Errorf("mpi: worker handshake: %w", err)
	}
	var reply [8]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("mpi: worker handshake read: %w", err)
	}
	w := &WorkerComm{
		inbox: inbox{newMailbox()},
		rank:  int(binary.BigEndian.Uint32(reply[0:])),
		size:  int(binary.BigEndian.Uint32(reply[4:])),
		cn:    newConn(c),
		local: o.local(),
	}
	w.setPeer(w.local.silentPeer()) // until the hub says hello
	go w.recvLoop()
	return w, nil
}

func (w *WorkerComm) setPeer(info peerInfo) {
	w.peer.Store(uint64(info.proto)<<32 | uint64(info.caps))
}

func (w *WorkerComm) peerInfo() peerInfo {
	v := w.peer.Load()
	return peerInfo{proto: int(v >> 32), caps: CapSet(uint32(v))}
}

func (w *WorkerComm) recvLoop() {
	r := bufio.NewReader(w.cn.c)
	fc := newFrameCodec(w.local.proto)
	for {
		dest, src, tag, payload, err := fc.readFrame(r)
		if err != nil {
			// A read error — connection loss or a protocol violation —
			// leaves the stream unsynchronized: close the conn rather
			// than linger half-open, and unblock every pending Recv.
			if !w.closed.Load() {
				emitPeerEvent(0, err) // rank 0: the hub is the only peer
			}
			w.cn.c.Close()
			w.mbox.close()
			return
		}
		if isHello(dest, src, tag, payload) {
			// The hub announced its protocol. Answer with ours (the
			// hub's classifier is waiting) and settle the negotiation —
			// all before any application frame is processed, so span
			// shipping and friends see the final capability set.
			if w.local.proto >= ProtoV2 {
				if info, err := decodeHello(payload); err == nil {
					w.setPeer(negotiate(w.local, info))
					_ = w.cn.send(helloDest, helloSrc, helloTag, encodeHello(w.local))
				}
			}
			continue
		}
		w.mbox.put(message{source: src, tag: tag, data: fc.retain(payload)})
	}
}

// Rank implements Comm.
func (w *WorkerComm) Rank() int { return w.rank }

// Size implements Comm.
func (w *WorkerComm) Size() int { return w.size }

// PeerProto implements Negotiator: the protocol version negotiated
// with the hub (any rank — everything travels via the hub).
func (w *WorkerComm) PeerProto(int) int { return w.peerInfo().proto }

// PeerCaps implements Negotiator: the capability set negotiated with
// the hub.
func (w *WorkerComm) PeerCaps(int) CapSet { return w.peerInfo().caps }

// Send implements Comm; frames to any destination travel via the hub.
func (w *WorkerComm) Send(data []byte, dest, tag int) error {
	if dest < 0 || dest >= w.size {
		return fmt.Errorf("mpi: worker send to invalid rank %d", dest)
	}
	return w.cn.send(dest, w.rank, tag, data)
}

// Close implements Comm.
func (w *WorkerComm) Close() error {
	w.once.Do(func() {
		w.closed.Store(true)
		w.cn.c.Close()
		w.mbox.close()
	})
	return nil
}
