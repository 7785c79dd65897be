package core

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The directories under testdata/preseq are databases, one per
// stand-alone kind, written by preseqWorkload under preseqOptions by the
// last version of the engine whose index tables numbered their own seqs.
// The workload deletes absent keys and puts documents that lack an
// indexed attribute, so each index table's seqs lag the primary's: a
// table's MaxSeq says nothing about the primary seqs of its postings.
// Every table of each holds a table on level 1, most also on level 0, and
// an unflushed WAL tail.
// answers.golden holds what preseqAnswers read back from each fixture
// with that engine, one section per kind: Composite ranked its entries
// by the index table's seqs, the posting kinds by the primary's.
const preseqDir = "testdata/preseq"

var preseqKinds = []IndexKind{IndexEager, IndexLazy, IndexComposite}

// preseqOptions is smallOptions with 2 KiB MemTables and a 4 KiB level
// 1, so every table of the fixture spreads over more than one level.
func preseqOptions(kind IndexKind) Options {
	opts := smallOptions(kind)
	opts.MemTableBytes = 2 << 10
	opts.BaseLevelBytes = 4 << 10
	return opts
}

// preseqWorkload is the write sequence the fixtures hold: puts of
// documents with both attributes, with CreationTime only and with
// neither, deletes of present and of absent keys.
func preseqWorkload(t *testing.T, db *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 700; i++ {
		key := fmt.Sprintf("t%04d", rng.Intn(300))
		var err error
		switch r := rng.Intn(10); {
		case r < 5:
			err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(10)), 1000+i, "both"))
		case r < 6:
			err = db.Put(key, []byte(fmt.Sprintf(`{"CreationTime":"%010d","Text":"no user"}`, 1000+i)))
		case r < 7:
			err = db.Put(key, []byte(`{"Text":"bare"}`))
		case r < 8:
			err = db.Delete(key)
		default:
			err = db.Delete(fmt.Sprintf("x%04d", i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// preseqQueries are the LOOKUPs (lo = hi) and RANGELOOKUPs whose answers
// the fixtures pin.
var preseqQueries = []struct{ attr, lo, hi string }{
	{"UserID", "u00", "u00"}, {"UserID", "u03", "u03"}, {"UserID", "u09", "u09"},
	{"UserID", "u02", "u05"}, {"UserID", "u00", "u09"},
	{"CreationTime", "0000001000", "0000001200"},
	{"CreationTime", "0000001300", "0000001699"},
	{"CreationTime", "0000001650", "0000001699"},
}

// preseqAnswers renders every preseqQueries answer at K = 1, 3, 10 and
// unbounded, each entry as key@seq and the CRC-32 of its document.
func preseqAnswers(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, k := range []int{1, 3, 10, 0} {
		for _, q := range preseqQueries {
			var res []Entry
			var err error
			if q.lo == q.hi {
				res, err = db.Lookup(q.attr, q.lo, k)
			} else {
				res, err = db.RangeLookup(q.attr, q.lo, q.hi, k)
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s [%s, %s] k=%d:", q.attr, q.lo, q.hi, k)
			for _, e := range res {
				fmt.Fprintf(&b, " %s@%d:%08x", e.Key, e.Seq, crc32.ChecksumIEEE(e.Value))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// preseqGolden returns kind's section of answers.golden.
func preseqGolden(t *testing.T, kind IndexKind) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(preseqDir, "answers.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		if name, body, _ := strings.Cut(sec, "\n"); name == kind.String() {
			return body
		}
	}
	t.Fatalf("answers.golden has no %s section", kind)
	return ""
}

// TestPreSeqFixture opens each pre-seq fixture: its seq floor is the
// primary's LastSeq, which the index seqs lag, and it reads back the
// recorded answers. Writes that no query sees — documents outside every
// queried range, documents without attributes, deletes of absent keys —
// a flush and a reopen leave them unchanged. Writes inside the ranges, a
// full compaction and another reopen then hold every query to refCollect.
func TestPreSeqFixture(t *testing.T) {
	for _, kind := range preseqKinds {
		t.Run(kind.String(), func(t *testing.T) {
			dir := copyFixture(t, filepath.Join(preseqDir, kind.String()))
			opts := preseqOptions(kind)
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			if db.seqFloor != db.LastSeq() || db.indexes["UserID"].LastSeq() >= db.seqFloor {
				t.Fatalf("seq floor %d, primary LastSeq %d, UserID index LastSeq %d; want floor = LastSeq > index's",
					db.seqFloor, db.LastSeq(), db.indexes["UserID"].LastSeq())
			}
			want := preseqGolden(t, kind)
			checkAnswers(t, "fixture", preseqAnswers(t, db), want)

			reopen := func() {
				t.Helper()
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(dir, opts); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("n%04d", i)
				switch i % 3 {
				case 0:
					err = db.Put(key, tweetDoc(fmt.Sprintf("v%02d", i%7), 5000+i, "unseen"))
				case 1:
					err = db.Put(key, []byte(`{"Text":"bare"}`))
				default:
					err = db.Delete(fmt.Sprintf("x%04d", i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			reopen()
			if floor := db.seqFloor; floor >= db.LastSeq() {
				t.Fatalf("seq floor %d moved with LastSeq %d", floor, db.LastSeq())
			}
			checkAnswers(t, "after unseen writes and a reopen", preseqAnswers(t, db), want)

			rng := rand.New(rand.NewSource(int64(kind)))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("t%04d", rng.Intn(300))
				if i%5 == 4 {
					err = db.Delete(key)
				} else {
					err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(10)), 1000+rng.Intn(700), "seen"))
				}
				if err != nil {
					t.Fatal(err)
				}
				if i == 100 {
					reopen()
				}
			}
			for _, q := range preseqQueries {
				checkCollect(t, db, q.attr, q.lo, q.hi, q.lo == q.hi)
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			reopen()
			for _, q := range preseqQueries {
				checkCollect(t, db, q.attr, q.lo, q.hi, q.lo == q.hi)
			}
		})
	}
}

// TestSeqFloorNewDatabase: a database this engine creates has seq floor
// 0, kept across reopens and copied by Checkpoint.
func TestSeqFloorNewDatabase(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOptions(IndexLazy))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put(fmt.Sprintf("t%02d", i), tweetDoc("u1", i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	cp := filepath.Join(t.TempDir(), "cp")
	if err := db.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, cp} {
		db, err := Open(d, smallOptions(IndexLazy))
		if err != nil {
			t.Fatal(err)
		}
		floor, last := db.seqFloor, db.LastSeq()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if floor != 0 || last != 50 {
			t.Fatalf("%s: seq floor %d, LastSeq %d; want 0, 50", d, floor, last)
		}
	}
}
