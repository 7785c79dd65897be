// Package cache provides a byte-capacity-bounded LRU block cache, the
// analogue of LevelDB's block cache. The paper's headline experiments run
// with the cache disabled ("No block cache was used") so that measured
// block I/O is purely algorithmic; the cache-effects experiment enables
// it to reproduce §5.2.2's discussion of caching under compaction churn —
// compaction rewrites tables, so cached blocks of consumed tables become
// unreachable (new tables get new IDs) exactly like invalidated OS buffer
// cache entries.
//
// The cache is partitioned into numShards independent LRU shards selected
// by key hash (LevelDB's ShardedLRUCache), so concurrent readers — the
// writers' compaction jobs and parallel lookups — contend on a shard
// mutex rather than one global lock. Each shard owns an equal slice of
// the byte budget; eviction is per shard.
package cache

import (
	"container/list"
	"sync"
)

// Key identifies one cached block: the owning table's unique ID plus the
// block index within it.
type Key struct {
	Table uint64
	Block int
}

// numShards is the fixed shard count (a power of two, LevelDB uses 16).
const numShards = 16

// shardOf hashes a key to its shard (Fibonacci hashing over the table ID
// and block index; blocks of one table spread across shards).
func shardOf(k Key) uint64 {
	h := k.Table*0x9e3779b97f4a7c15 + uint64(k.Block)*0xbf58476d1ce4e5b9
	return (h >> 59) & (numShards - 1)
}

// Cache is a thread-safe sharded LRU over decoded block contents.
type Cache struct {
	shards [numShards]shard
}

// shard is one independent LRU partition.
type shard struct {
	mu       sync.Mutex
	capacity int64                 // guarded by mu
	used     int64                 // guarded by mu
	lru      *list.List            // guarded by mu; front = most recent; values are *entry
	items    map[Key]*list.Element // guarded by mu
}

type entry struct {
	key  Key
	data []byte
}

// New returns a cache holding at most capacity bytes of block data.
// capacity <= 0 yields a cache that stores nothing (all misses), which
// callers may use instead of nil-checking. The budget splits evenly
// across shards (rounded up, as in LevelDB).
func New(capacity int64) *Cache {
	perShard := (capacity + numShards - 1) / numShards
	if capacity <= 0 {
		perShard = 0
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: perShard,
			lru:      list.New(),
			items:    map[Key]*list.Element{},
		}
	}
	return c
}

// Get returns the cached block and true on a hit, promoting the entry.
// The caller counts hits and misses (metrics.IOStats).
func (c *Cache) Get(k Key) ([]byte, bool) {
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// Put inserts (or refreshes) a block, evicting LRU entries of its shard
// to stay within the shard's capacity. Blocks larger than a whole shard
// are not cached.
func (c *Cache) Put(k Key, data []byte) {
	s := &c.shards[shardOf(k)]
	if int64(len(data)) > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.used += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		s.lru.MoveToFront(el)
	} else {
		s.items[k] = s.lru.PushFront(&entry{key: k, data: data})
		s.used += int64(len(data))
	}
	for s.used > s.capacity {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		s.used -= int64(len(e.data))
		delete(s.items, e.key)
		s.lru.Remove(oldest)
	}
}

// EvictTable drops every block of one table from every shard — called
// when a compaction deletes the table, mirroring how address changes
// invalidate the OS buffer cache (paper §5.2.2).
func (c *Cache) EvictTable(table uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if e.key.Table == table {
				s.used -= int64(len(e.data))
				delete(s.items, e.key)
				s.lru.Remove(el)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// Used returns the bytes of block data held, summed over shards.
func (c *Cache) Used() int64 {
	var used int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		used += s.used
		s.mu.Unlock()
	}
	return used
}
