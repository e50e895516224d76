package serve

import (
	"fmt"
	"sync"
	"testing"

	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64, nil)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", premia.Result{Price: 1.5})
	res, ok := c.Get("a")
	if !ok || res.Price != 1.5 {
		t.Fatalf("got %+v ok=%v", res, ok)
	}
	// Overwrite keeps one entry.
	c.Put("a", premia.Result{Price: 2.5})
	if res, _ := c.Get("a"); res.Price != 2.5 {
		t.Fatalf("overwrite lost: %+v", res)
	}
	if cached(c) != 1 {
		t.Fatalf("%d entries, want 1", cached(c))
	}
}

func TestCacheEviction(t *testing.T) {
	reg := telemetry.New()
	c := NewCache(32, reg) // 2 per shard
	for i := 0; i < 400; i++ {
		c.Put(fmt.Sprintf("key-%d", i), premia.Result{Price: float64(i)})
	}
	if cached(c) > 32 {
		t.Fatalf("cache grew to %d entries, capacity 32", cached(c))
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.cache.evictions"] == 0 {
		t.Fatal("no evictions recorded")
	}
	if got := snap.Gauges["serve.cache.entries"]; got != float64(cached(c)) {
		t.Fatalf("entries gauge %v, want %v", got, cached(c))
	}
}

// TestCacheCapacityInvariant overfills caches of sizes that do not
// divide evenly by the shard count and checks the total never exceeds
// the requested capacity. The pre-fix ceil division handed every shard
// ⌈capacity/16⌉ entries, overshooting by up to 15 (a NewCache(1) held
// 16 entries).
func TestCacheCapacityInvariant(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 15, 16, 17, 30, 31, 33, 47, 100, 255, 1000, 1023} {
		c := NewCache(capacity, nil)
		total := 0
		for i := range c.shards {
			total += c.shards[i].capacity
		}
		if total != capacity {
			t.Errorf("capacity %d: shard budgets sum to %d", capacity, total)
		}
		for i := 0; i < 3*capacity+17; i++ {
			c.Put(fmt.Sprintf("cap%d-key-%d", capacity, i), premia.Result{Price: float64(i)})
		}
		if got := cached(c); got > capacity {
			t.Errorf("capacity %d: cache holds %d entries after overfill", capacity, got)
		}
	}
}

// TestCacheSmallCapacityKeepsWhatItStores: a cache smaller than the shard
// count has no shard of budget zero, so whatever key is put into an
// empty cache reads back — sharded sixteen ways, a capacity of 1 lost 59
// of these 64 keys on arrival — and the most recent Put always survives.
func TestCacheSmallCapacityKeepsWhatItStores(t *testing.T) {
	for capacity := 1; capacity < cacheShards; capacity++ {
		lost := 0
		filled := NewCache(capacity, nil)
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("cap%d-key-%d", capacity, i)
			alone := NewCache(capacity, nil)
			alone.Put(key, premia.Result{Price: float64(i)})
			if res, ok := alone.Get(key); !ok || res.Price != float64(i) {
				lost++
			}
			filled.Put(key, premia.Result{Price: float64(i)})
			if _, ok := filled.Get(key); !ok {
				t.Errorf("capacity %d: the Put of %s evicted itself", capacity, key)
			}
			if n := cached(filled); n > capacity {
				t.Errorf("capacity %d: cache holds %d entries", capacity, n)
			}
		}
		if lost > 0 {
			t.Errorf("capacity %d: %d of 64 keys put alone cannot be read back", capacity, lost)
		}
	}
}

func TestCacheLRURecency(t *testing.T) {
	c := NewCache(cacheShards, nil) // 1 entry per shard
	// Find two keys landing on the same shard.
	shard := c.shardFor("k0")
	other := ""
	for i := 1; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == shard {
			other = k
			break
		}
	}
	c.Put("k0", premia.Result{Price: 1})
	c.Put(other, premia.Result{Price: 2}) // evicts k0 (capacity 1)
	if _, ok := c.Get("k0"); ok {
		t.Fatal("LRU kept the older entry beyond capacity")
	}
	if res, ok := c.Get(other); !ok || res.Price != 2 {
		t.Fatal("newest entry evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128, telemetry.New())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%64)
				c.Put(k, premia.Result{Price: float64(i)})
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if cached(c) > 128 {
		t.Fatalf("cache over capacity: %d", cached(c))
	}
}

// cached counts c's entries across its shards.
func cached(c *Cache) int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
