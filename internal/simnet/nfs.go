package simnet

// NFSConfig models the shared file system of the paper's cluster.
type NFSConfig struct {
	// ServerTime is the per-request service time at the NFS server
	// (lookup + read syscall handling), in seconds.
	ServerTime float64
	// Bandwidth is the server's streaming throughput in bytes/second,
	// shared by all clients through the FIFO queue.
	Bandwidth float64
	// Latency is the client↔server round-trip latency per request.
	Latency float64
	// CacheHitTime is the cost of reading a file already in the node's
	// client cache.
	CacheHitTime float64
}

// DefaultNFS approximates a departmental NFS server on the same Gigabit
// network: ~200 µs RPC overhead, server shares the GigE pipe, cache hits
// are nearly free.
var DefaultNFS = NFSConfig{
	ServerTime:   200e-6,
	Bandwidth:    100e6,
	Latency:      150e-6,
	CacheHitTime: 8e-6,
}

// NFS is the simulated shared file system: one FIFO server resource plus a
// per-node client cache. The cache is what made the paper's NFS column
// overtake serialized-load at high CPU counts — and what made those
// numbers "highly biased" on repeat runs (§4.2).
type NFS struct {
	cfg    NFSConfig
	server Resource
	// cache[node][path] records client-cached files.
	cache map[int]map[string]bool
}

// NewNFS creates a cold-cache file system model.
func NewNFS(cfg NFSConfig) *NFS {
	return &NFS{cfg: cfg, cache: make(map[int]map[string]bool)}
}

// ResetClock zeroes the server's queue state. Call it when reusing one
// NFS model (for its client caches) across separate simulation runs: the
// FIFO server's availability timestamp belongs to the previous engine's
// virtual clock and would otherwise stall the new run's cold reads until
// that stale time.
func (n *NFS) ResetClock() {
	n.server = Resource{}
}

// Read charges process p (running on the given node) the virtual cost of
// reading size bytes from path, then returns. A cache hit costs
// CacheHitTime; a miss queues at the server for ServerTime + size/Bandwidth
// and pays the RPC latency, then populates the node's cache.
func (n *NFS) Read(p *Proc, node int, path string, size int) {
	m := n.cache[node]
	if m != nil && m[path] {
		p.Sleep(n.cfg.CacheHitTime)
		return
	}
	p.Sleep(n.cfg.Latency)
	service := n.cfg.ServerTime
	if n.cfg.Bandwidth > 0 {
		service += float64(size) / n.cfg.Bandwidth
	}
	n.server.Use(p, service)
	if m == nil {
		m = make(map[string]bool)
		n.cache[node] = m
	}
	m[path] = true
}
