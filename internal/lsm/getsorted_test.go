package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
)

// tableBlock names one data block of one open table.
type tableBlock struct {
	table uint64
	block int
}

// blocksTouched lists the blocks a GET of key reads, from the tree's
// metadata: in each table the walk probes, the first block whose key span
// and bloom filter admit key, up to the table that holds it. A table holds
// one version per key, so no second block can be a candidate.
func blocksTouched(t *testing.T, db *DB, key []byte) []tableBlock {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, _, _, ok := db.mem.get(key); ok {
		return nil
	}
	if db.imm != nil {
		if _, _, _, ok := db.imm.get(key); ok {
			return nil
		}
	}
	var out []tableBlock
	for _, s := range db.strataLocked() {
		if s.IsMem() {
			continue
		}
		fm := s.FindFile(key)
		if fm == nil {
			continue
		}
		i, ok := fm.tbl.PrimaryBlock(key, nil)
		if !ok {
			continue
		}
		out = append(out, tableBlock{fm.tbl.ID(), i})
		if _, _, found, err := fm.tbl.GetWith(&sstable.GetScratch{}, key); err != nil {
			t.Fatal(err)
		} else if found {
			break
		}
	}
	return out
}

// buildMixedTree opens a DB over a tree with two deeper levels, level-0
// tables, a frozen MemTable whose flush is parked and a live MemTable,
// with tombstones at every depth. It returns the DB and the key space
// (some keys never written). The caller releases the parked flush through
// the returned func before closing.
func buildMixedTree(t *testing.T, seed int64, cacheBytes int64) (*DB, [][]byte, func()) {
	t.Helper()
	dir := t.TempDir()
	opts := smallOpts()
	opts.BlockCacheBytes = cacheBytes
	useFaultFS(opts)
	rng := rand.New(rand.NewSource(seed))
	const keys = 1500
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	write := func(db *DB, ops int) {
		for n := 0; n < ops; n++ {
			k := key(rng.Intn(keys - 100)) // the last 100 keys are never written
			if rng.Intn(10) == 0 {
				if err := db.DeleteAt([]byte(k), 0); err != nil {
					t.Fatal(err)
				}
				continue
			}
			mustPut(t, db, k, fmt.Sprintf("%s-%d-%040d", k, n, rng.Int63()))
		}
	}

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	write(db, 6000)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	write(db, 3000)
	installPending(t, db)
	for len(levelsOf(db)[0]) == 0 {
		write(db, 150)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	levels := levelsOf(db)
	deep := 0
	for _, files := range levels[1:] {
		if len(files) > 0 {
			deep++
		}
	}
	if len(levels[0]) == 0 || deep < 2 {
		t.Fatalf("tree has %d L0 tables and %d deeper levels, want ≥1 and ≥2", len(levels[0]), deep)
	}

	// Neither batch fills a MemTable, so only the parked Flush freezes.
	write(db, 60)
	release := parkFlush(t, db)
	write(db, 60) // the live MemTable shadows some frozen keys

	space := make([][]byte, keys)
	for i := range space {
		space[i] = []byte(key(i))
	}
	return db, space, func() {
		if err := release(); err != nil {
			t.Error(err)
		}
	}
}

// TestGetSortedMatchesGet holds GetSorted to per-key Get on
// random trees with a live and a frozen MemTable, level-0 tables, two
// deeper levels and tombstones, with and without a block cache: every
// sorted key set gets the same answers, and the batch accesses each
// (table, block) its keys need exactly once.
func TestGetSortedMatchesGet(t *testing.T) {
	for _, cacheBytes := range []int64{0, 256 << 10} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("cache=%d/seed=%d", cacheBytes, seed), func(t *testing.T) {
				db, space, release := buildMixedTree(t, seed, cacheBytes)
				defer closeWithin(t, db)
				defer release()
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 40; round++ {
					var keys [][]byte
					switch round {
					case 0:
						keys = space
					default:
						n := 1 + rng.Intn(64)
						// A run of neighbours (shared blocks) or a scatter.
						if rng.Intn(2) == 0 {
							start := rng.Intn(len(space) - n)
							keys = space[start : start+n]
						} else {
							picked := map[int]bool{}
							for len(picked) < n {
								picked[rng.Intn(len(space))] = true
							}
							for i := range picked {
								keys = append(keys, space[i])
							}
							sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
						}
					}
					checkGetSorted(t, db, keys)
				}
			})
		}
	}
}

func checkGetSorted(t *testing.T, db *DB, keys [][]byte) {
	t.Helper()
	type answer struct {
		value []byte
		ok    bool
	}
	want := make([]answer, len(keys))
	needed := map[tableBlock]bool{}
	for i, key := range keys {
		tr := metrics.StartDetached(metrics.OpGet)
		v, ok, err := db.Get(key, tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{v, ok}
		touched := blocksTouched(t, db, key)
		if got := tr.Counters().BlockAccesses(); got != int64(len(touched)) {
			t.Fatalf("Get(%s) accessed %d blocks, the walk over metadata %d", key, got, len(touched))
		}
		for _, b := range touched {
			needed[b] = true
		}
	}
	tr := metrics.StartDetached(metrics.OpLookup)
	next := 0
	err := db.GetSorted(keys, tr, func(i int, value []byte, ok bool) {
		if i != next {
			t.Fatalf("batch answered key %d, want %d", i, next)
		}
		next++
		if ok != want[i].ok || !bytes.Equal(value, want[i].value) {
			t.Fatalf("batch %s = %q %v, Get %q %v", keys[i], value, ok, want[i].value, want[i].ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(keys) {
		t.Fatalf("batch answered %d of %d keys", next, len(keys))
	}
	if got := tr.Counters().BlockAccesses(); got != int64(len(needed)) {
		t.Fatalf("batch of %d keys accessed %d blocks, %d distinct needed", len(keys), got, len(needed))
	}
}
