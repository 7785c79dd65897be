package core

import (
	"fmt"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
)

// TestEmbeddedSeqBoundSkipsOldBlocks: tweets with rising keys fill
// multi-block tables, then old tweets are re-put across flushes, so after
// a compaction their new versions sit inside blocks whose last key is old.
// A K=10 LOOKUP and RANGELOOKUP must answer as the model does while
// loading fewer than half of their candidate blocks, all of which
// Algorithms 5 and 8 load. Bounding a block by its last key's seq
// would skip the block holding a re-put tweet and lose it.
func TestEmbeddedSeqBoundSkipsOldBlocks(t *testing.T) {
	db := openKind(t, IndexEmbedded)
	m := newModel()
	put := func(i int, user, text string) {
		key := fmt.Sprintf("t%05d", i)
		if err := db.Put(key, tweetDoc(user, i, text)); err != nil {
			t.Fatal(err)
		}
		m.put(key, user, i)
	}
	for i := 0; i < 3000; i++ {
		put(i, fmt.Sprintf("u%02d", i%5), "tweet text goes here for padding")
	}
	// Two rounds of edits, each flushed: the first is compacted into the
	// old tweets' blocks, the second stays in its own table.
	for round, ids := range [][]int{{13, 250, 517, 801}, {366, 702}} {
		for _, i := range ids {
			put(i, "u01", "edited")
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	midBlock := false
	err := db.primary.View(func(v *lsm.View) error {
		for _, s := range v.Strata() {
			for _, fm := range s.Tables {
				tbl := fm.Table()
				for i := 0; i < tbl.NumBlocks(); i++ {
					_, last := tbl.BlockRange(i)
					midBlock = midBlock || tbl.BlockMaxSeq(i) != ikey.Seq(last)
				}
			}
		}
		return nil
	})
	if err != nil || !midBlock {
		t.Fatalf("no block's max seq sits before its last key (%v)", err)
	}

	check := func(op string, got []Entry, want []string, reads, candidates, pruned int64) {
		t.Helper()
		if !sameKeys(keysOf(got), want) {
			t.Fatalf("%s: %v\nwant %v", op, keysOf(got), want)
		}
		t.Logf("%s: %d block reads of %d candidate blocks, %d seq-pruned", op, reads, candidates, pruned)
		if 2*reads >= candidates || pruned == 0 {
			t.Errorf("%s: %d block reads of %d candidate blocks (%d seq-pruned), want under half", op, reads, candidates, pruned)
		}
	}
	got, rep, err := db.ExplainLookup("UserID", "u01", 10)
	if err != nil {
		t.Fatal(err)
	}
	check("LOOKUP", got, m.lookup("UserID", "u01", "u01", 10), rep.IO.BlockReads, rep.IO.CandidateBlocks, rep.IO.SeqPrunes)
	lo, hi := fmt.Sprintf("%010d", 0), fmt.Sprintf("%010d", 999)
	got, rep, err = db.ExplainRangeLookup("CreationTime", lo, hi, 10)
	if err != nil {
		t.Fatal(err)
	}
	check("RANGELOOKUP", got, m.lookup("CreationTime", lo, hi, 10), rep.IO.BlockReads, rep.IO.CandidateBlocks, rep.IO.SeqPrunes)
}

// TestEmbeddedLevelWalkNewestFirst: rising tweet IDs flush into disjoint
// tables that trivial moves carry, unmerged, into one level of eight
// tables. Key order there is oldest first, so a walk in key order would
// fill the top-K heap from the oldest table and then read a few blocks of
// every later one. Walked newest first, a K=10 LOOKUP reads the blocks
// that hold its 10 results, the blocks whose filters passed falsely, and
// nothing else.
func TestEmbeddedLevelWalkNewestFirst(t *testing.T) {
	opts := smallOptions(IndexEmbedded)
	opts.MemTableBytes = 1 << 20 // only Flush freezes
	opts.L0CompactionTrigger = 4
	opts.BaseLevelBytes = 1 << 20 // L1 keeps every table
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := newModel()
	for i := 0; i < 1600; i++ {
		key := fmt.Sprintf("t%05d", i)
		user := fmt.Sprintf("u%02d", i%7)
		if err := db.Put(key, tweetDoc(user, i, "tweet text goes here for padding")); err != nil {
			t.Fatal(err)
		}
		m.put(key, user, i)
		if i%200 == 199 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = db.primary.View(func(v *lsm.View) error {
		strata := v.Strata()
		if len(strata) != 2 || strata[1].Level != 1 || len(strata[1].Tables) < 4 {
			return fmt.Errorf("want the MemTable and one level of at least four tables, got %d strata", len(strata))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := db.EventLog().Counts()[metrics.EventTrivialMove]; n == 0 {
		t.Fatal("no table was moved")
	}

	for _, user := range []string{"u01", "u04"} {
		got, rep, err := db.ExplainLookup("UserID", user, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.lookup("UserID", user, user, 10); !sameKeys(keysOf(got), want) {
			t.Fatalf("LOOKUP %s: %v\nwant %v", user, keysOf(got), want)
		}
		want := int64(db.validationBlocks(got)) + rep.IO.BloomFalsePositives
		t.Logf("LOOKUP %s: %d block reads, %d result blocks, %d filter false positives, %d candidate blocks",
			user, rep.IO.BlockReads, db.validationBlocks(got), rep.IO.BloomFalsePositives, rep.IO.CandidateBlocks)
		if rep.IO.BlockReads != want {
			t.Errorf("LOOKUP %s read %d blocks, want %d: the result blocks plus filter false positives",
				user, rep.IO.BlockReads, want)
		}
	}
}

// FuzzEmbeddedTopK runs arbitrary fresh PUT / update / DEL / Flush /
// CompactRange sequences through an Embedded DB with blocks of a few
// tweets, and holds every K ∈ {1, 3, 10} LOOKUP and RANGELOOKUP to the
// model. Each input byte is one operation: its low three bits pick it
// (0–2 a PUT of the next rising tweet ID, 3–4 an update and 5 a DEL of an
// earlier ID, 6 Flush, 7 CompactRange), the next two the UserID and the
// top three which earlier ID. The seed corpus is
// testdata/fuzz/FuzzEmbeddedTopK.
func FuzzEmbeddedTopK(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		db, err := Open(t.TempDir(), Options{Index: IndexEmbedded, Attrs: []string{"UserID", "CreationTime"},
			MemTableBytes: 1 << 10, BlockSize: 256, BaseLevelBytes: 4 << 10, LevelMultiplier: 2, L0CompactionTrigger: 2, MaxLevels: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		m := newModel()
		next := 0
		for i, op := range ops {
			user := fmt.Sprintf("u%d", op>>3&3)
			key := fmt.Sprintf("t%04d", next)
			if kind := op & 7; kind >= 3 && kind <= 5 && next > 0 {
				key = fmt.Sprintf("t%04d", int(op>>5)*next/8)
			}
			switch op & 7 {
			case 0, 1, 2:
				next++
				fallthrough
			case 3, 4:
				err = db.Put(key, tweetDoc(user, i, "fuzzed"))
				m.put(key, user, i)
			case 5:
				err = db.Delete(key)
				m.del(key)
			case 6:
				err = db.Flush()
			case 7:
				err = db.CompactRange("", "")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		at := func(i int) string { return fmt.Sprintf("%010d", i) }
		for _, k := range []int{1, 3, 10} {
			for u := 0; u < 4; u++ {
				user := fmt.Sprintf("u%d", u)
				got, err := db.Lookup("UserID", user, k)
				if want := m.lookup("UserID", user, user, k); err != nil || !sameKeys(keysOf(got), want) {
					t.Fatalf("LOOKUP %s k=%d: %v (%v)\nwant %v", user, k, keysOf(got), err, want)
				}
			}
			for _, r := range [][2]string{{at(0), at(len(ops))}, {at(0), at(len(ops) / 2)}, {at(len(ops) / 3), at(len(ops))}} {
				got, err := db.RangeLookup("CreationTime", r[0], r[1], k)
				if want := m.lookup("CreationTime", r[0], r[1], k); err != nil || !sameKeys(keysOf(got), want) {
					t.Fatalf("RANGELOOKUP [%s, %s] k=%d: %v (%v)\nwant %v", r[0], r[1], k, keysOf(got), err, want)
				}
			}
		}
	})
}
