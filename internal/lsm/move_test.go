package lsm

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// moveOpts are smallOpts with a MemTable that only Flush freezes, so each
// Flush writes one level-0 table of exactly the keys put before it, a
// block cache, uncompressed tables of predictable size, an event log and
// a tracer that samples every compaction.
func moveOpts() *Options {
	o := smallOpts()
	o.MemTableBytes = 1 << 20
	o.BlockCacheBytes = 1 << 20
	o.DisableCompression = true
	o.Events = metrics.NewEventLog(0)
	o.Tracer = metrics.NewTracer(1, 16)
	return o
}

// tracedCompactions returns how many compactions db's tracer recorded.
func tracedCompactions(db *DB) int64 {
	for _, b := range db.opts.Tracer.Breakdown() {
		if b.Op == metrics.OpCompact.String() {
			return b.Count
		}
	}
	return 0
}

func moveKey(i int) string   { return fmt.Sprintf("key%05d", i) }
func moveValue(i int) string { return fmt.Sprintf("value-%05d-%0100d", i, i) }

// flushKeys puts moveKey(i) for every i in keys and flushes them into one
// level-0 table (or, once the flush fills L0, into whatever the drain
// makes of it).
func flushKeys(t *testing.T, db *DB, keys ...int) {
	t.Helper()
	for _, i := range keys {
		mustPut(t, db, moveKey(i), moveValue(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// span returns lo, lo+step, … below hi.
func span(lo, hi, step int) []int {
	var out []int
	for i := lo; i < hi; i += step {
		out = append(out, i)
	}
	return out
}

func fileNums(files []*FileMeta) []uint64 {
	var out []uint64
	for _, fm := range files {
		out = append(out, fm.Num)
	}
	return out
}

// eventCounts returns db's event counts by type and the trivial moves out
// of each level. Every move event must name its files and no bytes.
func eventCounts(t *testing.T, db *DB) (map[metrics.EventType]int64, map[int]int) {
	t.Helper()
	log := db.opts.Events.(*metrics.EventLog)
	moves := map[int]int{}
	for _, e := range log.Events() {
		if e.Type == metrics.EventTrivialMove {
			moves[e.Level]++
			if e.Bytes != 0 || e.Inputs == 0 {
				t.Fatalf("trivial move event %+v: want files and no bytes", e)
			}
		}
	}
	return log.Counts(), moves
}

// TestTrivialMove pins when a compaction job is a trivial move — a version
// edit that hands a level's disjoint tables, unread and unwritten, to the
// next level — and when it still merges.
func TestTrivialMove(t *testing.T) {
	t.Run("SequentialIngestMoves", func(t *testing.T) {
		opts := moveOpts()
		db, dir := openTestDB(t, opts)
		// Three disjoint tables of 100 keys (≈ 12 KiB each) wait in L0.
		for f := 0; f < 3; f++ {
			flushKeys(t, db, span(f*100, f*100+100, 1)...)
		}
		flushed := fileNums(levelsOf(db)[0])
		slices.Sort(flushed)
		if len(flushed) != 3 {
			t.Fatalf("L0 holds %v, want three tables", flushed)
		}
		// Warm the cache with one block of each.
		for f := 0; f < 3; f++ {
			mustGet(t, db, moveKey(f*100+50))
		}
		// The fourth fills L0: the set moves to L1, which is then over its
		// 32 KiB budget and moves tables on to L2.
		flushKeys(t, db, span(300, 400, 1)...)

		levels := levelsOf(db)
		if len(levels[0]) != 0 || len(levels[1]) == 0 || len(levels[2]) == 0 {
			t.Fatalf("levels %v %v %v: want L0 empty, L1 and L2 filled",
				fileNums(levels[0]), fileNums(levels[1]), fileNums(levels[2]))
		}
		var tree []uint64
		for _, files := range levels {
			tree = append(tree, fileNums(files)...)
		}
		slices.Sort(tree)
		if len(tree) != 4 || !slices.Equal(tree[:3], flushed) {
			t.Fatalf("tree holds tables %v, want the flushed %v and one more: a move keeps a table's number", tree, flushed)
		}
		st := db.Stats().Snapshot()
		if st.CompactionWriteBytes != 0 || st.CompactionReadBytes != 0 {
			t.Fatalf("moves read %d and wrote %d compaction bytes, want none", st.CompactionReadBytes, st.CompactionWriteBytes)
		}
		counts, moves := eventCounts(t, db)
		if moves[0] != 1 || moves[1] == 0 || counts[metrics.EventCompactionStart] != 0 || tracedCompactions(db) != 0 {
			t.Fatalf("moves by source level %v, events %v, %d traced compactions: want L0→L1 and L1→L2 moves and no compaction",
				moves, counts, tracedCompactions(db))
		}

		// No moved table was unlinked, and its cached blocks still serve.
		onDisk, err := filepath.Glob(filepath.Join(dir, "*.sst"))
		if err != nil || len(onDisk) != len(tree) {
			t.Fatalf("%d table files on disk (%v), want %d", len(onDisk), err, len(tree))
		}
		pre := db.Stats().Snapshot()
		for f := 0; f < 3; f++ {
			if v, ok := mustGet(t, db, moveKey(f*100+50)); !ok || v != moveValue(f*100+50) {
				t.Fatalf("%s = %q %v after the move", moveKey(f*100+50), v, ok)
			}
		}
		if d := db.Stats().Snapshot().Sub(pre); d.BlockReads != 0 || d.CacheHits < 3 {
			t.Fatalf("reads of moved tables: %d block reads, %d cache hits; want all hits", d.BlockReads, d.CacheHits)
		}

		// Reopening from the MANIFEST gives the same tree.
		type rec struct {
			num    uint64
			lo, hi string
		}
		shape := func(levels [][]*FileMeta) [][]rec {
			out := make([][]rec, len(levels))
			for l, files := range levels {
				for _, fm := range files {
					out[l] = append(out[l], rec{fm.Num, string(fm.Smallest), string(fm.Largest)})
				}
			}
			return out
		}
		before := shape(levels)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, moveOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if after := shape(levelsOf(db2)); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("reopened tree %v, want %v", after, before)
		}
		for i := 0; i < 400; i++ {
			if v, ok := mustGet(t, db2, moveKey(i)); !ok || v != moveValue(i) {
				t.Fatalf("reopened: %s = %q %v", moveKey(i), v, ok)
			}
		}
	})

	t.Run("OverlappingL0Merges", func(t *testing.T) {
		db, _ := openTestDB(t, moveOpts())
		// Every table spans the whole key range.
		for f := 0; f < 3; f++ {
			flushKeys(t, db, span(f, 200, 4)...)
		}
		flushed := fileNums(levelsOf(db)[0])
		flushKeys(t, db, span(3, 200, 4)...)
		checkMerged(t, db, 0, flushed)
	})

	t.Run("L1OverlapMerges", func(t *testing.T) {
		db, _ := openTestDB(t, moveOpts())
		for f := 0; f < 4; f++ {
			flushKeys(t, db, span(100+f*25, 125+f*25, 1)...) // moved to L1: 100 keys, ≈ 12 KiB
		}
		if _, moves := eventCounts(t, db); moves[0] != 1 || len(levelsOf(db)[1]) != 4 {
			t.Fatalf("setup: moves %v, L1 %v", moves, fileNums(levelsOf(db)[1]))
		}
		// A pairwise-disjoint L0 set that overlaps no L1 table, but whose
		// key span, like LevelDB's, takes in all of L1.
		for f := 0; f < 3; f++ {
			flushKeys(t, db, span(f*25, f*25+25, 1)...)
		}
		flushed := fileNums(levelsOf(db)[0])
		flushKeys(t, db, span(300, 325, 1)...)
		checkMerged(t, db, 1, flushed)
	})

	t.Run("GrandparentOverlapBound", func(t *testing.T) {
		fake := func(num uint64, lo, hi string, size int64) *FileMeta {
			return &FileMeta{Num: num, Size: size,
				Smallest: ikey.Make([]byte(lo), num, ikey.KindSet), Largest: ikey.Make([]byte(hi), num, ikey.KindSet)}
		}
		for _, tc := range []struct {
			overlap int64
			move    bool
		}{{maxGrandparentOverlapBytes, true}, {maxGrandparentOverlapBytes + 1, false}} {
			h := &handoff{v: newVersion(5)}
			pick := fake(1, "k10", "k20", 1000)
			h.v.levels[1] = []*FileMeta{pick}
			h.v.levels[3] = []*FileMeta{
				fake(2, "k00", "k09", 50*maxTableBytes), // outside the pick: not counted
				fake(3, "k09", "k12", tc.overlap-1),
				fake(4, "k19", "k30", 1),
				fake(5, "k31", "k40", 50*maxTableBytes),
			}
			job := h.job(1, []*FileMeta{pick}, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
			if got := h.trivialMove(job); got != tc.move {
				t.Errorf("grandparent overlap %d bytes: move = %v, want %v", tc.overlap, got, tc.move)
			}
		}
	})

	t.Run("CompactRangeDropsTombstones", func(t *testing.T) {
		db, _ := openTestDB(t, moveOpts())
		for i := 0; i < 100; i++ {
			mustPut(t, db, moveKey(i), moveValue(i))
			if err := db.DeleteAt([]byte(moveKey(i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		// One L0 table of tombstones, which nothing below overlaps: the
		// drain would move it. CompactRange rewrites it at the base level,
		// which drops every tombstone.
		if n := countTombstones(db); n != 100 {
			t.Fatalf("flushed %d tombstones, want 100", n)
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		if n := countTombstones(db); n != 0 {
			t.Fatalf("%d tombstones left after CompactRange", n)
		}
		if _, moves := eventCounts(t, db); len(moves) != 0 {
			t.Fatalf("CompactRange moved tables: %v", moves)
		}
	})
}

// checkMerged asserts that filling L0 with its fourth table merged the
// level-0 set, whose first three tables are flushed, rather than moved it.
func checkMerged(t *testing.T, db *DB, wantMoves int, flushed []uint64) {
	t.Helper()
	counts, moves := eventCounts(t, db)
	if moves[0] != wantMoves || counts[metrics.EventCompactionDone] == 0 || tracedCompactions(db) == 0 {
		t.Fatalf("moves %v, events %v, %d traced compactions: want %d L0 moves and a merge",
			moves, counts, tracedCompactions(db), wantMoves)
	}
	if st := db.Stats().Snapshot(); st.CompactionWriteBytes == 0 {
		t.Fatal("no compaction bytes written")
	}
	levels := levelsOf(db)
	if len(levels[0]) != 0 {
		t.Fatalf("L0 still holds %v", fileNums(levels[0]))
	}
	for _, files := range levels[1:] {
		for _, fm := range files {
			if slices.Contains(flushed, fm.Num) {
				t.Fatalf("table %06d reached L1+ unmerged", fm.Num)
			}
		}
	}
}

func countTombstones(db *DB) int {
	n := 0
	for _, files := range levelsOf(db) {
		for _, fm := range files {
			it := fm.Table().NewIterator(false)
			for it.Next() {
				if ikey.KindOf(it.Key()) == ikey.KindDelete {
					n++
				}
			}
		}
	}
	return n
}

// TestTrivialMoveConcurrentReads races Get and Scan readers with a writer
// whose sequential ingest drains by trivial moves: every read sees every
// key written before it began, with its value, in key order. Wired into
// `make lint-race`.
func TestTrivialMoveConcurrentReads(t *testing.T) {
	opts := smallOpts()
	opts.Events = metrics.NewEventLog(0)
	db, _ := openTestDB(t, opts)
	const n = 6000
	var written atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				w := int(written.Load())
				if w < 100 {
					runtime.Gosched()
					continue
				}
				i := rng.Intn(w)
				v, ok, err := db.Get([]byte(moveKey(i)), nil)
				if err != nil || !ok || string(v) != moveValue(i) {
					t.Errorf("Get(%s) = %q %v %v", moveKey(i), v, ok, err)
					return
				}
				lo := rng.Intn(w - 50)
				next := lo
				err = db.Scan([]byte(moveKey(lo)), []byte(moveKey(lo+50)), nil, func(k, v []byte, _ uint64) bool {
					if string(k) != moveKey(next) || string(v) != moveValue(next) {
						t.Errorf("Scan from %s: got %s at %s", moveKey(lo), k, moveKey(next))
						return false
					}
					next++
					return true
				})
				if err != nil || next != lo+50 {
					t.Errorf("Scan from %s: %d keys, %v", moveKey(lo), next-lo, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		mustPut(t, db, moveKey(i), moveValue(i))
		written.Store(int64(i + 1))
	}
	close(done)
	wg.Wait()
	if _, moves := eventCounts(t, db); moves[0] == 0 || moves[1] == 0 {
		t.Fatalf("moves by source level %v: want L0 and L1 moves", moves)
	}
	if rep, err := db.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}
