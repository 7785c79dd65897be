package lsm

import (
	"fmt"
	"testing"
)

func TestBlockCacheServesRepeatReads(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 1 << 20
	db, _ := openTestDB(t, opts)
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	db.Flush()

	// First read: miss + disk read. Second read of the same key: hit, no
	// new disk read.
	pre := db.Stats().Snapshot()
	mustGet(t, db, "key00010")
	mid := db.Stats().Snapshot()
	if d := mid.Sub(pre); d.BlockReads == 0 {
		t.Fatal("first read should hit disk")
	}
	mustGet(t, db, "key00010")
	post := db.Stats().Snapshot()
	d := post.Sub(mid)
	if d.BlockReads != 0 {
		t.Fatalf("second read hit disk: %+v", d)
	}
	if d.CacheHits == 0 {
		t.Fatal("second read did not register a cache hit")
	}
	if post.CacheHits == 0 || post.CacheMisses == 0 || db.blockCache.Used() == 0 {
		t.Fatalf("cache counters = %+v, used %d", post, db.blockCache.Used())
	}
}

func TestBlockCacheDisabledByDefault(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), "value")
	}
	db.Flush()
	mustGet(t, db, "key00010")
	mustGet(t, db, "key00010")
	s := db.Stats().Snapshot()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("cache active without configuration: %+v", s)
	}
	if db.blockCache != nil {
		t.Fatal("block cache built without configuration")
	}
}

func TestCompactionEvictsConsumedTables(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 4 << 20
	db, _ := openTestDB(t, opts)
	// Warm the cache on L0 data.
	for i := 0; i < 1000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	db.Flush()
	for i := 0; i < 200; i++ {
		mustGet(t, db, fmt.Sprintf("key%05d", i))
	}
	if db.blockCache.Used() == 0 {
		t.Fatal("cache not warmed")
	}
	// Drive enough churn that every original table is compacted away:
	// the padding keys fall between the original ones, so every table
	// overlaps them and compactions merge rather than move.
	for i := 0; i < 4000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d.pad%06d", i*7919%1000, i), fmt.Sprintf("val%064d", i))
	}
	// Reads of the original keys must be misses again (tables replaced,
	// LevelDB++'s analogue of the paper's buffer-cache invalidation).
	pre := db.Stats().Snapshot()
	for i := 0; i < 50; i++ {
		mustGet(t, db, fmt.Sprintf("key%05d", i))
	}
	d := db.Stats().Snapshot().Sub(pre)
	if d.BlockReads == 0 {
		t.Fatal("post-compaction reads served from stale cache entries")
	}
	// And correctness held throughout.
	if v, ok := mustGet(t, db, "key00042"); !ok || v != fmt.Sprintf("val%032d", 42) {
		t.Fatalf("data wrong after cache churn: %q %v", v, ok)
	}
}

func TestCacheCorrectnessUnderRandomOps(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 64 << 10 // tiny: constant eviction pressure
	db, _ := openTestDB(t, opts)
	ref := map[string]string{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key%03d", i%700)
		v := fmt.Sprintf("val%08d", i)
		mustPut(t, db, k, v)
		ref[k] = v
		if i%37 == 0 {
			probe := fmt.Sprintf("key%03d", (i*13)%700)
			got, ok := mustGet(t, db, probe)
			want, wantOK := ref[probe]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: %s = %q/%v want %q/%v", i, probe, got, ok, want, wantOK)
			}
		}
	}
}
