package cache

import (
	"sync"
	"testing"
)

func blk(n int) []byte { return make([]byte, n) }

// sameShardKeys returns n distinct keys for table that all hash to one
// shard, so LRU-order tests exercise a single partition deterministically.
func sameShardKeys(table uint64, n int) []Key {
	target := shardOf(Key{Table: table, Block: 0})
	out := []Key{{Table: table, Block: 0}}
	for b := 1; len(out) < n; b++ {
		k := Key{Table: table, Block: b}
		if shardOf(k) == target {
			out = append(out, k)
		}
	}
	return out
}

// cachedBlocks counts the blocks held across all shards.
func cachedBlocks(c *Cache) int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].items)
	}
	return n
}

func TestGetPut(t *testing.T) {
	c := New(1024)
	k := Key{Table: 1, Block: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("hello"))
	v, ok := c.Get(k)
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if used := c.Used(); used != 5 {
		t.Fatalf("used = %d, want 5", used)
	}
}

func TestLRUEviction(t *testing.T) {
	// 300 bytes per shard; four same-shard 100-byte blocks → the oldest
	// of the shard must go.
	c := New(300 * numShards)
	keys := sameShardKeys(1, 4)
	for _, k := range keys {
		c.Put(k, blk(100))
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest block not evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("block %v wrongly evicted", k)
		}
	}
	if cachedBlocks(c) != 3 {
		t.Fatalf("Len = %d", cachedBlocks(c))
	}
}

func TestAccessPromotes(t *testing.T) {
	c := New(300 * numShards)
	keys := sameShardKeys(1, 4)
	c.Put(keys[0], blk(100))
	c.Put(keys[1], blk(100))
	c.Put(keys[2], blk(100))
	c.Get(keys[0]) // promote the oldest
	c.Put(keys[3], blk(100))
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("promoted block evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU block survived")
	}
}

func TestShardDistribution(t *testing.T) {
	// Many blocks of one table must not collapse into a single shard.
	shards := map[uint64]bool{}
	for b := 0; b < 256; b++ {
		shards[shardOf(Key{Table: 7, Block: b})] = true
	}
	if len(shards) < numShards/2 {
		t.Fatalf("256 blocks landed in only %d shards", len(shards))
	}
}

func TestOversizedBlockNotCached(t *testing.T) {
	// A block larger than one whole shard is not cached.
	c := New(100 * numShards)
	c.Put(Key{1, 0}, blk(200))
	if _, ok := c.Get(Key{1, 0}); ok {
		t.Fatal("oversized block cached")
	}
	if cachedBlocks(c) != 0 {
		t.Fatal("cache not empty")
	}
}

func TestPutRefreshAdjustsUsage(t *testing.T) {
	c := New(1000 * numShards)
	c.Put(Key{1, 0}, blk(100))
	c.Put(Key{1, 0}, blk(300))
	if used := c.Used(); used != 300 {
		t.Fatalf("used = %d, want 300", used)
	}
}

func TestEvictTable(t *testing.T) {
	c := New(10000)
	for tbl := uint64(1); tbl <= 3; tbl++ {
		for b := 0; b < 5; b++ {
			c.Put(Key{Table: tbl, Block: b}, blk(10))
		}
	}
	c.EvictTable(2)
	if cachedBlocks(c) != 10 {
		t.Fatalf("Len after evict = %d", cachedBlocks(c))
	}
	if _, ok := c.Get(Key{Table: 2, Block: 3}); ok {
		t.Fatal("evicted table still cached")
	}
	if _, ok := c.Get(Key{Table: 1, Block: 3}); !ok {
		t.Fatal("unrelated table evicted")
	}
	if used := c.Used(); used != 100 {
		t.Fatalf("used = %d", used)
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New(0)
	c.Put(Key{1, 0}, []byte("x"))
	if _, ok := c.Get(Key{1, 0}); ok {
		t.Fatal("zero-capacity cache stored a block")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Table: uint64(g % 4), Block: i % 50}
				if i%3 == 0 {
					c.Put(k, blk(64))
				} else {
					c.Get(k)
				}
				if i%500 == 0 {
					c.EvictTable(uint64(g % 4))
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkGetHit(b *testing.B) {
	c := New(1 << 20)
	for i := 0; i < 100; i++ {
		c.Put(Key{1, i}, blk(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(Key{1, i % 100})
	}
}
