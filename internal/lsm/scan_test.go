package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"leveldbpp/internal/ikey"
)

// collectScan runs a merged scan and returns the visited keys and values.
func collectScan(t *testing.T, db *DB, lo, hiExcl string) (keys, vals []string) {
	t.Helper()
	var hiB []byte
	if hiExcl != "" {
		hiB = []byte(hiExcl)
	}
	err := db.Scan([]byte(lo), hiB, nil, func(k, v []byte, seq uint64) bool {
		keys = append(keys, string(k))
		vals = append(vals, string(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

func TestScanMergedAcrossStrata(t *testing.T) {
	opts := smallOpts()
	opts.L0CompactionTrigger = 100 // keep several L0 files around
	db, _ := openTestDB(t, opts)

	// Spread versions across: L0 file 1, L0 file 2, memtable.
	mustPut(t, db, "a", "old-a")
	mustPut(t, db, "b", "only-b")
	db.Flush()
	mustPut(t, db, "a", "mid-a")
	mustPut(t, db, "c", "only-c")
	db.Flush()
	mustPut(t, db, "a", "new-a") // memtable
	mustPut(t, db, "d", "only-d")

	keys, vals := collectScan(t, db, "", "")
	if fmt.Sprint(keys) != "[a b c d]" {
		t.Fatalf("keys = %v", keys)
	}
	if vals[0] != "new-a" {
		t.Fatalf("newest version not returned: %q", vals[0])
	}
}

// TestScanReadsOnlyOverlappingTables: on a level of several tables, a
// Scan of one table's last key reads exactly the blocks that iterating the
// tables overlapping [lo, hiExcl) directly reads — none from a table that
// starts at or past hiExcl.
func TestScanReadsOnlyOverlappingTables(t *testing.T) {
	db, _ := openTestDB(t, bigJobOpts())
	loadBigJob(t, db)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	levels := levelsOf(db)
	files := levels[deepestNonEmpty(db)]
	if len(files) < 2 {
		t.Fatalf("%d tables at the deepest level, want several", len(files))
	}
	blockReads := func(read func()) int64 {
		before := db.Stats().Snapshot()
		read()
		return db.Stats().Snapshot().Sub(before).BlockReads
	}
	for i, fm := range files {
		lo := bytes.Clone(ikey.UserKey(fm.Largest))
		hiExcl := append(bytes.Clone(lo), 0)
		direct := blockReads(func() {
			for _, level := range levels {
				for _, f := range level {
					if !f.Overlaps(lo, hiExcl) {
						continue
					}
					it := f.Table().NewIterator(false)
					for ok := it.SeekGE(ikey.SeekKey(lo)); ok && bytes.Compare(ikey.UserKey(it.Key()), hiExcl) < 0; ok = it.Next() {
					}
					if err := it.Err(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		var keys []string
		scan := blockReads(func() { keys, _ = collectScan(t, db, string(lo), string(hiExcl)) })
		if len(keys) != 1 || keys[0] != string(lo) {
			t.Fatalf("table %d: scan of [%s, %q) = %v", i, lo, hiExcl, keys)
		}
		if direct == 0 || scan != direct {
			t.Errorf("table %d of %d: scan read %d blocks, the overlapping tables %d", i, len(files), scan, direct)
		}
	}
}

func TestScanSkipsTombstones(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	mustPut(t, db, "a", "1")
	mustPut(t, db, "b", "2")
	mustPut(t, db, "c", "3")
	db.Flush()
	db.DeleteAt([]byte("b"), 0)
	keys, _ := collectScan(t, db, "", "")
	if fmt.Sprint(keys) != "[a c]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestScanBounds(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 20; i++ {
		mustPut(t, db, fmt.Sprintf("k%02d", i), "v")
	}
	db.Flush()
	keys, _ := collectScan(t, db, "k05", "k10")
	if fmt.Sprint(keys) != "[k05 k06 k07 k08 k09]" {
		t.Fatalf("bounded scan = %v", keys)
	}
	// Unbounded high.
	keys, _ = collectScan(t, db, "k18", "")
	if fmt.Sprint(keys) != "[k18 k19]" {
		t.Fatalf("open scan = %v", keys)
	}
	// Empty window.
	keys, _ = collectScan(t, db, "k10", "k10")
	if len(keys) != 0 {
		t.Fatalf("empty window = %v", keys)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 100; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	n := 0
	err := db.Scan(nil, nil, nil, func(k, v []byte, seq uint64) bool {
		n++
		return n < 7
	})
	if err != nil || n != 7 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestScanSeqIsNewestVersion(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	mustPut(t, db, "k", "v1")
	db.Flush()
	mustPut(t, db, "k", "v2")
	var got uint64
	db.Scan(nil, nil, nil, func(_, _ []byte, seq uint64) bool {
		got = seq
		return true
	})
	if got != db.LastSeq() {
		t.Fatalf("scan seq = %d, want newest %d", got, db.LastSeq())
	}
}

func TestScanMatchesReferenceUnderChurn(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(500))
		if rng.Intn(8) == 0 {
			db.DeleteAt([]byte(k), 0)
			delete(ref, k)
		} else {
			v := fmt.Sprintf("v%06d", i)
			mustPut(t, db, k, v)
			ref[k] = v
		}
	}
	var want []string
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	keys, vals := collectScan(t, db, "", "")
	if len(keys) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if k != want[i] || vals[i] != ref[k] {
			t.Fatalf("position %d: got %s=%s want %s=%s", i, k, vals[i], want[i], ref[want[i]])
		}
	}
}

func TestScanEmptyDB(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	keys, _ := collectScan(t, db, "", "")
	if len(keys) != 0 {
		t.Fatalf("scan of empty db = %v", keys)
	}
}

func TestViewScanConsistentWithDBScan(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 300; i++ {
		mustPut(t, db, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	var a, b []string
	db.Scan(nil, nil, nil, func(k, _ []byte, _ uint64) bool { a = append(a, string(k)); return true })
	db.View(func(v *View) error {
		return scanStrata(v.Strata(), nil, nil, nil, func(k, _ []byte, _ uint64) bool { b = append(b, string(k)); return true })
	})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("a scan of View.Strata differs from DB.Scan")
	}
}

func TestViewHelpers(t *testing.T) {
	opts := smallOpts()
	opts.SecondaryAttrs = []string{"a"}
	db, _ := openTestDB(t, opts)
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	db.Flush()
	if db.FilterMemoryUsage() <= 0 {
		t.Fatal("no filter memory after flush")
	}
	if s := db.DebugString(); len(s) == 0 {
		t.Fatal("empty DebugString")
	}
	db.View(func(v *View) error {
		if _, ok, err := v.Get([]byte("key00042"), nil); err != nil || !ok {
			t.Fatalf("View.Get: %v %v", ok, err)
		}
		strata := v.Strata()
		deepest := strata[len(strata)-1]
		if deepest.Level < 1 {
			t.Fatalf("deepest = %d", deepest.Level)
		}
		if fm := deepest.FindFile([]byte("key00042")); fm == nil {
			// The key may live at another level; probe each.
			found := false
			for _, s := range strata {
				if s.IsMem() {
					continue
				}
				if fm := s.FindFile([]byte("key00042")); fm != nil {
					_, inTable := fm.Table().PrimaryBlock([]byte("key00042"), nil)
					found = found || s.Level > 0 || inTable
				}
			}
			if !found {
				t.Fatal("FindFile found nothing at any level")
			}
		}
		if files := overlappingFiles(deepest.Tables, []byte("key00000"), []byte("key99999")); len(files) == 0 {
			t.Fatal("overlappingFiles empty on full range")
		}
		it := strata[0].MemIter()
		it.SeekToFirst() // memtable may be empty after flush; just exercise
		return nil
	})
	seq1 := db.LastSeq() + 5
	if err := db.PutAt([]byte("pws"), []byte("v"), seq1); err != nil || db.LastSeq() != seq1 {
		t.Fatalf("PutAt(%d): LastSeq %d, %v", seq1, db.LastSeq(), err)
	}
	if err := db.PutAt([]byte("pws"), []byte("w"), seq1); !errors.Is(err, ErrSeqNotAbove) {
		t.Fatalf("PutAt at LastSeq: %v, want %v", err, ErrSeqNotAbove)
	}
	if v, ok, err := db.Get([]byte("pws"), nil); err != nil || !ok || string(v) != "v" {
		t.Fatalf("after a refused PutAt: %q %v %v", v, ok, err)
	}
	if err := db.DeleteAt([]byte("pws"), 0); err != nil || db.LastSeq() != seq1+1 {
		t.Fatalf("Delete after PutAt(%d): LastSeq %d, %v", seq1, db.LastSeq(), err)
	}
}
