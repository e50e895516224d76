package mpi

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Transport abstracts the byte pipes a hub/worker world is built on:
// something that can listen for peers and dial a listener. The frame
// codec, handshake and routing above it are transport-independent, so
// every backend and CLI that takes a -transport flag works over each of
// the three.
type Transport interface {
	// Name is what LookupTransport knows it by: "tcp", "unix" or "inproc".
	Name() string
	// Listen binds a listener on addr. An empty addr selects a
	// transport-chosen ephemeral address (the ":0" idiom).
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener at addr.
	Dial(addr string) (net.Conn, error)
}

// LookupTransport returns the named transport. Every caller names one:
// "" is no transport.
func LookupTransport(name string) (Transport, error) {
	switch name {
	case "tcp":
		return tcpTransport{}, nil
	case "unix":
		return unixTransport{}, nil
	case "inproc":
		return inproc, nil
	}
	return nil, fmt.Errorf("mpi: unknown transport %q (have %v)", name, Transports())
}

// Transports lists the transport names, sorted.
func Transports() []string { return []string{"inproc", "tcp", "unix"} }

// tcpTransport is the original cross-host transport.
type tcpTransport struct{}

func (tcpTransport) Name() string { return "tcp" }

func (tcpTransport) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

func (tcpTransport) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// unixSeq makes ephemeral unix socket paths unique within the process.
var unixSeq atomic.Int64

// unixTransport runs worlds over unix-domain stream sockets: the
// same-host worker-pool shape, skipping the TCP/IP stack entirely. addr
// is a filesystem path; empty picks a fresh socket under the default
// temp directory. The listener unlinks its socket file on Close (the
// net package's unlink-on-close default for listeners it created).
type unixTransport struct{}

func (unixTransport) Name() string { return "unix" }

func (unixTransport) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = filepath.Join(os.TempDir(),
			fmt.Sprintf("riskbench-%d-%d.sock", os.Getpid(), unixSeq.Add(1)))
	} else if info, err := os.Lstat(addr); err == nil && info.Mode()&os.ModeSocket != 0 {
		// A stale socket left by a crashed hub would fail the bind;
		// only ever remove things that are actually sockets.
		_ = os.Remove(addr)
	}
	return net.Listen("unix", addr)
}

func (unixTransport) Dial(addr string) (net.Conn, error) {
	return net.Dial("unix", addr)
}

// inprocTransport runs worlds over in-process net.Pipe pairs: real
// framed wire traffic, zero OS sockets. It exists so the full versioned
// handshake and codec path can run in tests and single-process
// deployments exactly as it does across hosts; the mailbox-based
// LocalWorld remains the fast path that skips framing altogether.
type inprocTransport struct {
	mu     sync.Mutex
	seq    int64
	worlds map[string]*inprocListener
}

// inproc is the process's one inproc transport: its listeners are found
// by name, so every dial must look in the table every listen wrote to.
var inproc = &inprocTransport{worlds: make(map[string]*inprocListener)}

func (*inprocTransport) Name() string { return "inproc" }

func (t *inprocTransport) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.seq++
		addr = fmt.Sprintf("world-%d", t.seq)
	}
	if _, dup := t.worlds[addr]; dup {
		return nil, fmt.Errorf("mpi: inproc address %q already listening", addr)
	}
	ln := &inprocListener{t: t, addr: addr, accept: make(chan net.Conn), done: make(chan struct{})}
	t.worlds[addr] = ln
	return ln, nil
}

func (t *inprocTransport) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	ln := t.worlds[addr]
	t.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("mpi: no inproc listener at %q", addr)
	}
	client, server := net.Pipe()
	select {
	case ln.accept <- server:
		return client, nil
	case <-ln.done:
		return nil, fmt.Errorf("mpi: inproc listener at %q closed", addr)
	}
}

type inprocListener struct {
	t      *inprocTransport
	addr   string
	accept chan net.Conn
	once   sync.Once
	done   chan struct{}
}

func (ln *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-ln.accept:
		return c, nil
	case <-ln.done:
		return nil, net.ErrClosed
	}
}

func (ln *inprocListener) Close() error {
	ln.once.Do(func() {
		close(ln.done)
		ln.t.mu.Lock()
		delete(ln.t.worlds, ln.addr)
		ln.t.mu.Unlock()
	})
	return nil
}

func (ln *inprocListener) Addr() net.Addr { return inprocAddr(ln.addr) }

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }
