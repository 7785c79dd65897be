package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"leveldbpp/internal/ikey"
)

// TestMergerPreservesTombstoneShadowing covers the subtle path where a
// compaction merges live fragments that sit ABOVE a tombstone, while an
// older fragment lives in a deeper level: the tombstone must survive the
// merge (unless bottom-most) so the deep fragment stays shadowed.
func TestMergerPreservesTombstoneShadowing(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	opts.L0CompactionTrigger = 100 // manual control below
	db, _ := openTestDB(t, opts)

	// Deep fragment: "old" — flush it and force it to level 1+ by
	// compacting L0 manually via trigger manipulation... simpler: build
	// the layering through ordered flushes, then compact only the upper
	// two files.
	mustPut(t, db, "frag", "old")
	db.Flush()
	db.DeleteAt([]byte("frag"), 0) // tombstone above "old"
	db.Flush()
	mustPut(t, db, "frag", "new") // fresh fragment above the tombstone
	db.Flush()

	// Compact everything to one level: expected visible value is "new"
	// only — never "old|new" (tombstone must cut the merge) and never
	// "old" (shadowing must survive intermediate states).
	for i := 0; i < 6; i++ {
		v, ok := mustGet(t, db, "frag")
		if !ok || v != "new" {
			t.Fatalf("round %d: frag = %q %v, want new", i, v, ok)
		}
		mustPut(t, db, fmt.Sprintf("fill%02d", i), "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
		db.Flush()
	}
	if v, ok := mustGet(t, db, "frag"); !ok || v != "new" {
		t.Fatalf("final: frag = %q %v", v, ok)
	}
}

// TestMergerDropsDeletedKeyAtBottom verifies a key whose newest record is
// a tombstone disappears entirely once compaction reaches the base level.
func TestMergerDropsDeletedKeyAtBottom(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	db, _ := openTestDB(t, opts)
	mustPut(t, db, "victim", "a")
	db.Flush()
	db.DeleteAt([]byte("victim"), 0)
	db.Flush()
	for i := 0; i < 8; i++ {
		mustPut(t, db, fmt.Sprintf("fill%03d", i), "yyyyyyyyyyyyyyyyyy")
		db.Flush()
	}
	if _, ok := mustGet(t, db, "victim"); ok {
		t.Fatal("deleted key visible")
	}
	// No physical trace may remain.
	found := false
	for _, files := range levelsOf(db) {
		for _, fm := range files {
			it := fm.Table().NewIterator(false)
			for it.Next() {
				if string(ikey.UserKey(it.Key())) == "victim" {
					found = true
				}
			}
		}
	}
	if found {
		t.Fatal("victim record still on disk after full compaction")
	}
}

// TestCompactionPointerRotates checks the round-robin file pick: repeated
// level-1 compactions must not repeatedly choose the same key range.
func TestCompactionPointerRotates(t *testing.T) {
	opts := smallOpts()
	opts.BaseLevelBytes = 8 << 10 // tiny L1 → frequent L1→L2 compactions
	db, _ := openTestDB(t, opts)
	for i := 0; i < 8000; i++ {
		mustPut(t, db, fmt.Sprintf("key%07d", (i*2654435761)%1000000), fmt.Sprintf("val%040d", i))
	}
	files := levelsOf(db)[2]
	if len(files) == 0 {
		t.Fatal("no level-2 files: rotation never pushed data down")
	}
	// Level 2 should cover a broad key range, not one corner.
	lo := string(ikey.UserKey(files[0].Smallest))
	hi := string(ikey.UserKey(files[len(files)-1].Largest))
	if lo >= "key0500000" || hi <= "key0500000" {
		t.Fatalf("level-2 range [%s, %s] suspiciously narrow", lo, hi)
	}
}

// TestLevelSizesRespectBudgets: after a long ingest, no level (except the
// last) should exceed its budget by more than one table's worth.
func TestLevelSizesRespectBudgets(t *testing.T) {
	opts := smallOpts()
	db, _ := openTestDB(t, opts)
	for i := 0; i < 10000; i++ {
		mustPut(t, db, fmt.Sprintf("key%07d", i), fmt.Sprintf("val%032d", i))
	}
	levels := levelsOf(db)
	for l := 1; l < len(levels)-1; l++ {
		var bytes int64
		for _, fm := range levels[l] {
			bytes += fm.Size
		}
		budget := db.maxBytesForLevel(l) + maxTableBytes
		if bytes > budget {
			t.Errorf("level %d holds %d bytes, budget %d", l, bytes, budget)
		}
	}
}

// TestUpdateHeavyChurnKeepsNewestVisible hammers a small key space so
// every key has many versions spread over all levels.
func TestUpdateHeavyChurnKeepsNewestVisible(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	last := map[string]string{}
	for i := 0; i < 12000; i++ {
		k := fmt.Sprintf("key%02d", i%50)
		v := fmt.Sprintf("val%08d", i)
		mustPut(t, db, k, v)
		last[k] = v
	}
	for k, v := range last {
		if got, ok := mustGet(t, db, k); !ok || got != v {
			t.Fatalf("%s = %q %v, want %q", k, got, ok, v)
		}
	}
}

func TestCompactRangePushesDataDown(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	levels := levelsOf(db)
	if len(levels[0]) != 0 {
		t.Errorf("L0 not empty after CompactRange: %d files", len(levels[0]))
	}
	// Everything above the deepest level within the range must be
	// clear (full-range compaction → single resting level, except the
	// level right above may briefly hold nothing anyway).
	deepest := deepestNonEmpty(db)
	for l := 1; l < deepest; l++ {
		if len(levels[l]) != 0 {
			t.Errorf("level %d still holds %d files", l, len(levels[l]))
		}
	}
	for i := 0; i < 2000; i++ {
		if v, ok := mustGet(t, db, fmt.Sprintf("key%05d", i)); !ok || v != fmt.Sprintf("val%032d", i) {
			t.Fatalf("key%05d lost by CompactRange", i)
		}
	}
}

func TestCompactRangePartial(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 3000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	// Compact just a narrow band; everything must stay readable.
	if err := db.CompactRange([]byte("key01000"), []byte("key01500")); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 999, 1000, 1250, 1500, 1501, 2999} {
		if _, ok := mustGet(t, db, fmt.Sprintf("key%05d", i)); !ok {
			t.Fatalf("key%05d lost", i)
		}
	}
}

func TestOrphanTablesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key%04d", i), "value-value-value")
	}
	db.Flush()
	db.Close()

	// Simulate a crash that left an unreferenced compaction output.
	orphan := filepath.Join(dir, "999999.sst")
	if err := os.WriteFile(orphan, []byte("garbage from a dead compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan table not garbage-collected at open")
	}
	// Data intact.
	if _, ok := mustGet(t, db2, "key0042"); !ok {
		t.Fatal("data lost during orphan GC")
	}
}
