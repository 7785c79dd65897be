package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/sstable"
)

// TestIndexTablesRecordBlockMaxSeq: every index table a Lazy, Eager or
// Composite database writes records each block's max seq, and the column
// agrees with a scan of the block. Documents are written in rising
// CreationTime and some are rewritten later, so after a compaction an
// old block's bound lies below its table's MaxSeq.
func TestIndexTablesRecordBlockMaxSeq(t *testing.T) {
	for _, kind := range []IndexKind{IndexLazy, IndexEager, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			rng := rand.New(rand.NewSource(int64(kind)))
			for i := 0; i < 1500; i++ {
				key := i
				if i%5 == 4 {
					key = rng.Intn(i)
				}
				if err := db.Put(fmt.Sprintf("t%05d", key), tweetDoc(fmt.Sprintf("u%02d", i%12), i, "text")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			for _, attr := range db.opts.Attrs {
				tables, oldBlocks := 0, 0
				err := db.indexes[attr].View(func(v *lsm.View) error {
					var it sstable.BlockIter
					for _, s := range v.Strata() {
						for _, fm := range s.Tables {
							tbl := fm.Table()
							tables++
							if !tbl.HasBlockMaxSeqs() {
								return fmt.Errorf("table %d records no block max seqs", fm.Num)
							}
							for i := 0; i < tbl.NumBlocks(); i++ {
								if err := tbl.LoadBlock(&it, i, nil); err != nil {
									return err
								}
								var blockMax uint64
								for it.Next() {
									blockMax = max(blockMax, ikey.Seq(it.Key()))
								}
								if err := it.Err(); err != nil {
									return err
								}
								if got := tbl.BlockMaxSeq(i); got != blockMax {
									return fmt.Errorf("table %d block %d: BlockMaxSeq = %d, scan %d", fm.Num, i, got, blockMax)
								}
								if blockMax < tbl.MaxSeq() {
									oldBlocks++
								}
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", attr, err)
				}
				if tables == 0 || oldBlocks == 0 {
					t.Fatalf("%s: %d tables, %d blocks older than their table's MaxSeq; want some of each", attr, tables, oldBlocks)
				}
			}
		})
	}
}

// TestRangeLookupBlockUnits drives PUTs, overwrites that move documents
// between attribute values, DELs, flushes and compactions through Lazy,
// Eager and Composite databases with 256-byte blocks, so a range spans
// many blocks of every table, and holds RANGELOOKUP at K = 1, 10 and
// unbounded to a model map (each result's key and seq) and to refCollect
// (the same answers and validations, no more index blocks read).
// CreationTime rises with the writes, so its blocks are bounded apart;
// UserID is random, so its bounds interleave. A K = 1 RANGELOOKUP over
// every CreationTime then reads under a quarter of the blocks in range.
func TestRangeLookupBlockUnits(t *testing.T) {
	for _, kind := range []IndexKind{IndexLazy, IndexEager, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOptions(kind)
			opts.BlockSize = 256
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			m := map[string]fuzzDoc{}
			rng := rand.New(rand.NewSource(int64(kind) + 58))
			for step := 0; step < 3000; step++ {
				key := fmt.Sprintf("t%04d", rng.Intn(800))
				switch r := rng.Intn(100); {
				case r < 85:
					doc := tweetDoc(fmt.Sprintf("u%02d", rng.Intn(12)), step, "text")
					if err = db.Put(key, doc); err == nil {
						m[key] = fuzzDoc{doc, db.LastSeq()}
					}
				case r < 97:
					err = db.Delete(key)
					delete(m, key)
				case r < 99:
					err = db.Flush()
				default:
					err = db.CompactRange("", "")
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step%600 != 599 {
					continue
				}
				lo := rng.Intn(step)
				for _, q := range []struct{ attr, lo, hi string }{
					{"CreationTime", "0000000000", "9999999999"},
					{"CreationTime", fmt.Sprintf("%010d", lo), fmt.Sprintf("%010d", lo+rng.Intn(400))},
					{"UserID", "u00", "u99"},
					{"UserID", "u03", "u07"},
				} {
					checkModelRange(t, db, m, q.attr, q.lo, q.hi)
					checkCollect(t, db, q.attr, q.lo, q.hi, false)
				}
			}
			s0 := db.Stats()
			if _, err := db.RangeLookup("CreationTime", "0000000000", "9999999999", 1); err != nil {
				t.Fatal(err)
			}
			reads := db.Stats().Index.BlockReads - s0.Index.BlockReads
			inRange := db.indexes["CreationTime"].OverlappingBlockCount([]byte("0000000000"), upperBoundExclusive("9999999999"))
			if 4*reads >= int64(inRange) {
				t.Errorf("K=1 RANGELOOKUP read %d index blocks of %d in range; want under a quarter", reads, inRange)
			}
		})
	}
}

// checkModelRange holds RANGELOOKUP at K = 1, 10 and unbounded to m.
func checkModelRange(t *testing.T, db *DB, m map[string]fuzzDoc, attr, lo, hi string) {
	t.Helper()
	for _, k := range []int{1, 10, 0} {
		got, err := db.RangeLookup(attr, lo, hi, k)
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(got))
		for i, e := range got {
			rendered[i] = fmt.Sprintf("%s@%d", e.Key, e.Seq)
		}
		top := k
		if top <= 0 {
			top = len(m)
		}
		if want := modelTopK(m, attr, lo, hi, top); strings.Join(rendered, " ") != strings.Join(want, " ") {
			t.Fatalf("RANGELOOKUP %s [%s, %s] k=%d:\n got %v\nwant %v", attr, lo, hi, k, rendered, want)
		}
	}
}

// TestCompositeMarkerInOtherBlock places a Composite deletion marker in a
// level-1 block whose other entries are older than the entry the marker
// hides, which sits a level deeper: bounded by its last key, the marker's
// block would open only after the hidden entry was popped, and the
// deleted document would be validated. RANGELOOKUP must answer and
// validate as refCollect does, which never sees the hidden entry.
func TestCompositeMarkerInOtherBlock(t *testing.T) {
	opts := smallOptions(IndexComposite)
	opts.BlockSize = 256
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx := db.indexes["CreationTime"]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Filler deep enough that the tree has a level below level 1.
	for i := 0; i < 3000; i++ {
		must(db.Put(fmt.Sprintf("f%04d", i%900), tweetDoc("u01", i, "filler text for the index")))
	}
	must(db.CompactRange("", ""))
	// nowhere is a composite key no table holds: compacting it only moves
	// level 0 into level 1.
	nowhere := []byte("zzzz")
	// The old entries A, then the entry E that the marker will hide; each
	// lands in level 1 as its own table, and E is then pushed deeper.
	for i := 101; i <= 300; i++ {
		must(db.Put(fmt.Sprintf("a%03d", i), tweetDoc("u02", 50000+i, "a")))
	}
	must(db.Flush())
	must(idx.CompactRange(nowhere, nowhere))
	must(db.Put("x", tweetDoc("u02", 50100, "hidden")))
	hidden := db.LastSeq()
	must(db.Flush())
	must(idx.CompactRange(nowhere, nowhere))
	ck := compositeKey("0000050100", "x")
	must(idx.CompactRange(ck, ck))
	// The marker, and a new entry inside A's range, so that compacting
	// their level-0 table into level 1 merges it with A's table.
	must(db.Delete("x"))
	must(db.Put("z", tweetDoc("u02", 50250, "z")))
	must(db.Flush())
	must(idx.CompactRange(nowhere, nowhere))

	markerLevel, entryLevel := -1, -1
	err = idx.View(func(v *lsm.View) error {
		var it sstable.BlockIter
		for _, s := range v.Strata() {
			for _, fm := range s.Tables {
				tbl := fm.Table()
				for i := 0; i < tbl.NumBlocks(); i++ {
					if err := tbl.LoadBlock(&it, i, nil); err != nil {
						return err
					}
					var marker bool
					var last []byte
					for it.Next() {
						last = append(last[:0], it.Key()...)
						if bytes.Equal(ikey.UserKey(it.Key()), ck) {
							if ikey.KindOf(it.Key()) == ikey.KindDelete {
								marker = true
								markerLevel = s.Level
							} else {
								entryLevel = s.Level
							}
						}
					}
					if marker && ikey.Seq(last) >= hidden {
						return fmt.Errorf("the marker's block ends at seq %d, not below the hidden entry's %d", ikey.Seq(last), hidden)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if markerLevel < 1 || entryLevel <= markerLevel {
		t.Fatalf("marker at level %d, hidden entry at level %d; want the entry deeper than a table level", markerLevel, entryLevel)
	}
	checkCollect(t, db, "CreationTime", "0000050000", "0000050400", false)
	checkCollect(t, db, "CreationTime", "0000050100", "0000050100", false)
}
