package core

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/postings"
)

// The directories under testdata/seedformat are databases in the seed's
// on-disk formats — v1 table blocks and footers (no restart arrays) and
// v1 JSON posting lists — one per index kind. They were written by
// seedWorkload under seedFormatOptions, with flate-compressed blocks, by
// the last version of the engine that could still write those formats.
// In each, the primary holds tables on two levels, and every table
// (primary and index) an unflushed WAL tail. The engine no longer writes
// v1, so these files are the proof that its sniffing readers still open
// such a database. answers.golden holds what seedAnswers read back from
// each fixture when it was written.
const seedFormatDir = "testdata/seedformat"

// seedFormatOptions is smallOptions with a 4 KiB level 1, so the few
// dozen KiB of the fixture spread over more than one level.
func seedFormatOptions(kind IndexKind) Options {
	opts := smallOptions(kind)
	opts.BaseLevelBytes = 4 << 10
	return opts
}

// seedWorkload is the write sequence the fixtures hold: postingsWorkload
// (inserts, UserID-changing updates and deletes, then a flush), and
// forty more inserts, updates and deletes, of which the first twenty are
// flushed and the rest only the WAL carries.
func seedWorkload(t *testing.T, db *DB) {
	t.Helper()
	postingsWorkload(t, db)
	for i := 0; i < 40; i++ {
		var err error
		if i == 20 {
			// A second flush puts a level-0 table over the deeper ones.
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		switch i % 4 {
		case 0, 1:
			err = db.Put(fmt.Sprintf("t%04d", 400+i), tweetDoc(fmt.Sprintf("u%02d", i%7), 1400+i, "tail"))
		case 2:
			err = db.Put(fmt.Sprintf("t%04d", 9*i), tweetDoc("u77", 1100+i, "tail-moved"))
		default:
			err = db.Delete(fmt.Sprintf("t%04d", 11*i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// seedUpdates writes every primary key and every attribute value that
// seedWorkload left behind — UserIDs u00–u06, u77 and u88, creation
// times 1000–1439 and the u88 moves' 1500+23j — so that a full compaction
// afterwards rewrites every table, and Eager, which rewrites a posting
// list only when a posting lands in it, rewrites every list.
func seedUpdates(t *testing.T, db *DB) {
	t.Helper()
	users := []string{"u00", "u01", "u02", "u03", "u04", "u05", "u06", "u77", "u88"}
	put := func(key, user string, ts int) {
		if err := db.Put(key, tweetDoc(user, ts, "rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 440; i++ {
		put(fmt.Sprintf("t%04d", i), users[i%len(users)], 1000+i)
	}
	for j := 1; 23*j < 400; j++ {
		put(fmt.Sprintf("m%04d", j), "u88", 1500+23*j)
	}
	for i := 0; i < 440; i += 7 {
		if err := db.Delete(fmt.Sprintf("t%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// seedAnswers renders what a database holding seedWorkload reads back: a
// full scan, point GETs (deleted and absent keys included), and LOOKUPs
// and RANGELOOKUPs at two K. Documents appear as CRC-32 checksums.
func seedAnswers(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	sum := func(doc []byte) string { return fmt.Sprintf("%08x", crc32.ChecksumIEEE(doc)) }
	if err := db.Scan("", "", func(k string, v []byte) bool {
		fmt.Fprintf(&b, "SCAN %s %s\n", k, sum(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 445; i += 4 {
		key := fmt.Sprintf("t%04d", i)
		doc, ok, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fmt.Fprintf(&b, "GET %s %s\n", key, sum(doc))
		} else {
			fmt.Fprintf(&b, "GET %s -\n", key)
		}
	}
	entries := func(res []Entry) string {
		var s strings.Builder
		for _, e := range res {
			fmt.Fprintf(&s, " %s@%d:%s", e.Key, e.Seq, sum(e.Value))
		}
		return s.String()
	}
	for _, k := range []int{5, 0} {
		for _, user := range []string{"u00", "u03", "u06", "u77", "u88", "u99"} {
			res, err := db.Lookup("UserID", user, k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "LOOKUP UserID %s k=%d:%s\n", user, k, entries(res))
		}
		for _, r := range [][2]string{{"0000001000", "0000001040"}, {"0000001100", "0000001300"}, {"0000001390", "0000001450"}} {
			res, err := db.RangeLookup("CreationTime", r[0], r[1], 2*k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "RANGELOOKUP CreationTime [%s, %s] k=%d:%s\n", r[0], r[1], 2*k, entries(res))
		}
	}
	return b.String()
}

// copySeedFormat copies kind's fixture into a fresh directory.
func copySeedFormat(t *testing.T, kind IndexKind) string {
	t.Helper()
	return copyFixture(t, filepath.Join(seedFormatDir, kind.String()))
}

// copyFixture copies the database directory src into a fresh directory:
// a fixture, or a crash image of a database nothing writes to meanwhile.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dst, path[len(src):])
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// openSeedFormat opens a copy of kind's fixture under seedFormatOptions,
// which write the current formats.
func openSeedFormat(t *testing.T, kind IndexKind) (*DB, string) {
	t.Helper()
	dir := copySeedFormat(t, kind)
	db, err := Open(dir, seedFormatOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

// openSeedReference opens an empty database under seedFormatOptions and
// runs seedWorkload on it: the fixture's contents in the current formats.
func openSeedReference(t *testing.T, kind IndexKind) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), seedFormatOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedWorkload(t, db)
	return db
}

// seedGolden returns the answers recorded when the fixtures were written
// (every kind's fixture read back the same).
func seedGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(seedFormatDir, "answers.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// checkAnswers fails with the first line where got and want differ.
func checkAnswers(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d\n got %s\nwant %s", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", what, len(g), len(w))
}

// tableFormats counts the live tables of db's primary and index tables
// by block format version, and its stored posting lists by leading byte
// ('[' for v1 JSON, postings.MagicV2 for v2). Composite index values and
// tombstones carry no posting list and are not counted.
func tableFormats(t *testing.T, db *DB) (tables map[int]int, lists map[byte]int) {
	t.Helper()
	tables, lists = map[int]int{}, map[byte]int{}
	visit := func(l *lsm.DB, postingLists bool) {
		err := l.View(func(v *lsm.View) error {
			for _, s := range v.Strata() {
				for _, fm := range s.Tables {
					tables[fm.Table().FormatVersion()]++
					if !postingLists {
						continue
					}
					it := fm.Table().NewIterator(false)
					for it.Next() {
						if ikey.KindOf(it.Key()) == ikey.KindSet && len(it.Value()) > 0 {
							lists[it.Value()[0]]++
						}
					}
					if err := it.Err(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	visit(db.primary, false)
	for _, idx := range db.indexes {
		visit(idx, db.opts.Index != IndexComposite)
	}
	return tables, lists
}

// TestSeedFormatOpens opens each seed-format fixture under the default
// options: it must read back exactly the recorded answers. After more
// writes and a full compaction no v1 table or v1 posting list may remain,
// and every answer must still match a database that took the same writes
// in the current formats (and, for the stand-alone kinds, refCollect).
func TestSeedFormatOpens(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db, _ := openSeedFormat(t, kind)
			tables, lists := tableFormats(t, db)
			if tables[1] == 0 || tables[2] != 0 {
				t.Fatalf("fixture tables by format: %v, want only v1", tables)
			}
			if (kind == IndexEager || kind == IndexLazy) && (lists['['] == 0 || lists[postings.MagicV2] != 0) {
				t.Fatalf("fixture posting lists by leading byte: %v, want only v1", lists)
			}
			checkAnswers(t, "fixture", seedAnswers(t, db), seedGolden(t))

			seedUpdates(t, db)
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			tables, lists = tableFormats(t, db)
			if tables[2] == 0 || len(tables) != 1 {
				t.Fatalf("tables by format after compaction: %v, want only v2", tables)
			}
			if lists['['] != 0 {
				t.Fatalf("posting lists by leading byte after compaction: %v, want only v2", lists)
			}

			ref := openSeedReference(t, kind)
			seedUpdates(t, ref)
			checkAnswers(t, "after compaction", seedAnswers(t, db), seedAnswers(t, ref))
			if kind == IndexEager || kind == IndexLazy || kind == IndexComposite {
				checkCollect(t, db, "UserID", "u03", "u03", true)
				checkCollect(t, db, "UserID", "u02", "u06", false)
				checkCollect(t, db, "CreationTime", "0000001100", "0000001250", false)
			}
		})
	}
}

// TestFixtureListsNewestFirst opens a copy of every Eager and Lazy
// fixture, seed-format and pre-seq, and primes every posting list its
// index tables hold: each stored value of each table and each MemTable
// version its WAL replayed. Every one must be newest first, the order
// the posting readers take as part of a well-formed list.
func TestFixtureListsNewestFirst(t *testing.T) {
	for _, f := range []struct {
		dir  string
		opts func(IndexKind) Options
	}{{seedFormatDir, seedFormatOptions}, {preseqDir, preseqOptions}} {
		for _, kind := range []IndexKind{IndexEager, IndexLazy} {
			t.Run(filepath.Base(f.dir)+"/"+kind.String(), func(t *testing.T) {
				db, err := Open(copyFixture(t, filepath.Join(f.dir, kind.String())), f.opts(kind))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				stored, versions := checkListsNewestFirst(t, db)
				if stored == 0 || versions == 0 {
					t.Fatalf("%d stored lists, %d MemTable versions; want both", stored, versions)
				}
			})
		}
	}
}

// checkListsNewestFirst primes every posting list db's index tables
// hold, stored and in MemTables, and counts them.
func checkListsNewestFirst(t *testing.T, db *DB) (stored, versions int) {
	t.Helper()
	var c postings.Cursor
	check := func(what string, ik, v []byte) {
		if ikey.KindOf(ik) != ikey.KindSet {
			return
		}
		if err := c.Prime(v); err != nil {
			t.Fatalf("%s %q: %v", what, ikey.UserKey(ik), err)
		}
	}
	for attr, idx := range db.indexes {
		err := idx.View(func(v *lsm.View) error {
			for _, s := range v.Strata() {
				if s.IsMem() {
					it := s.MemIter()
					for it.SeekToFirst(); it.Valid(); it.Next() {
						check(attr+" MemTable", it.Key(), it.Value())
						versions++
					}
				}
				for _, fm := range s.Tables {
					it := fm.Table().NewIterator(false)
					for it.Next() {
						check(attr+" table", it.Key(), it.Value())
						stored++
					}
					if err := it.Err(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return stored, versions
}
