package serve

import (
	"container/list"
	"sync"

	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// cacheShards caps the shard count. Sixteen shards keep lock contention
// negligible at the request rates an in-process farm can sustain while
// staying small enough that per-shard LRU capacity is meaningful for
// modest total capacities.
const cacheShards = 16

// DefaultCacheSize is the total entry capacity used when a Cache is
// created with capacity <= 0.
const DefaultCacheSize = 4096

// Cache is a sharded, content-addressed store of pricing results keyed
// by premia.Problem.ContentKey. Each shard is an independent
// mutex-guarded LRU list, so concurrent readers on different shards
// never contend. It implements risk.PriceCache.
type Cache struct {
	reg    *telemetry.Registry
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	capacity int
}

type cacheEntry struct {
	key string
	res premia.Result
}

// NewCache returns a cache holding at most capacity entries in total
// (DefaultCacheSize when capacity <= 0), reporting hit/miss/eviction
// telemetry to reg (nil disables telemetry, not the cache). The
// capacity is split over min(capacity, cacheShards) shards with the
// remainder spread one entry each over the first shards, so the
// per-shard budgets sum exactly to the requested total — a ceil division
// here would let the cache overshoot by up to cacheShards-1 entries —
// and no shard has a budget of zero, which would evict every Put on
// arrival.
func NewCache(capacity int, reg *telemetry.Registry) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &Cache{reg: reg, shards: make([]cacheShard, min(capacity, cacheShards))}
	base, rem := capacity/len(c.shards), capacity%len(c.shards)
	for i := range c.shards {
		c.shards[i].capacity = base
		if i < rem {
			c.shards[i].capacity++
		}
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor picks a shard by FNV-1a over the key. Content keys are
// uniformly distributed hex SHA-256 strings, so any cheap mix spreads
// them evenly.
func (c *Cache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached result for key and refreshes its recency.
func (c *Cache) Get(key string) (premia.Result, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.reg.Counter("serve.cache.misses").Add(1)
		return premia.Result{}, false
	}
	s.lru.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	s.mu.Unlock()
	c.reg.Counter("serve.cache.hits").Add(1)
	return res, true
}

// Put stores res under key, evicting the shard's least recently used
// entries beyond its capacity share.
func (c *Cache) Put(key string, res premia.Result) {
	s := c.shardFor(key)
	evicted := 0
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, res: res})
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*cacheEntry).key)
		evicted++
	}
	s.mu.Unlock()
	c.reg.Gauge("serve.cache.entries").Add(float64(1 - evicted))
	if evicted > 0 {
		c.reg.Counter("serve.cache.evictions").Add(int64(evicted))
	}
}

// Len returns the current number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
