package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leveldbpp/internal/vfs"
)

// writeUsers puts n documents, every third of them by user u1.
func writeUsers(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("u%d", 2+i%5)
		if i%3 == 0 {
			user = "u1"
		}
		if err := db.Put(fmt.Sprintf("t%03d", i), tweetDoc(user, 1000+i, "x")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenWithOtherIndexFails reopens a database with another index
// kind or another attribute list. Before databases recorded their
// index, each reopen succeeded, and in the first five cases LOOKUP
// answered nothing: the index tables it read were empty or missing. Now
// each fails with an error that names both sides, the same attributes
// in another order included, and the database still opens as it was
// made.
func TestReopenWithOtherIndexFails(t *testing.T) {
	with := func(kind IndexKind, attrs ...string) Options {
		opts := smallOptions(kind)
		opts.Attrs = attrs
		return opts
	}
	for _, c := range []struct{ made, reopened Options }{
		{with(IndexNone, "UserID", "CreationTime"), with(IndexLazy, "UserID", "CreationTime")},
		{with(IndexLazy, "CreationTime"), with(IndexLazy, "CreationTime", "UserID")},
		{with(IndexLazy, "UserID", "CreationTime"), with(IndexComposite, "UserID", "CreationTime")},
		{with(IndexComposite, "UserID", "CreationTime"), with(IndexEager, "UserID", "CreationTime")},
		{with(IndexEmbedded, "UserID", "CreationTime"), with(IndexLazy, "UserID", "CreationTime")},
		{with(IndexLazy, "UserID", "CreationTime"), with(IndexLazy, "CreationTime", "UserID")},
	} {
		name := fmt.Sprintf("%v%v→%v%v", c.made.Index, c.made.Attrs, c.reopened.Index, c.reopened.Attrs)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, c.made)
			if err != nil {
				t.Fatal(err)
			}
			writeUsers(t, db, 50)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = Open(dir, c.reopened)
			if err == nil {
				res, lerr := db.Lookup("UserID", "u1", 5)
				db.Close()
				t.Fatalf("reopened: LOOKUP UserID u1 K=5 answers %d results, error %v", len(res), lerr)
			}
			msg := err.Error()
			for _, want := range []string{
				c.made.Index.String(), c.reopened.Index.String(),
				fmt.Sprintf("%q", c.made.Attrs), fmt.Sprintf("%q", c.reopened.Attrs),
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q does not name %s", msg, want)
				}
			}

			db, err = Open(dir, c.made)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			attr := "UserID"
			if !slices.Contains(c.made.Attrs, attr) {
				attr = "CreationTime"
			}
			value := "u1"
			if attr == "CreationTime" {
				value = fmt.Sprintf("%010d", 1000+48)
			}
			res, err := db.Lookup(attr, value, 5)
			if err != nil || len(res) == 0 || res[0].Key != "t048" {
				t.Fatalf("LOOKUP %s %s after the failed reopen: %v, %v", attr, value, res, err)
			}
		})
	}
}

// TestReadDescriptor: a new database records its Options, and a
// directory that holds no database records nothing.
func TestReadDescriptor(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if _, _, ok, err := ReadDescriptor(dir); ok || err != nil {
		t.Fatalf("empty directory: ok %v, err %v", ok, err)
	}
	opts := smallOptions(IndexComposite)
	opts.Attrs = []string{"CreationTime", "UserID"}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	kind, attrs, ok, err := ReadDescriptor(dir)
	if !ok || err != nil || kind != IndexComposite || !slices.Equal(attrs, opts.Attrs) {
		t.Fatalf("ReadDescriptor = %v %q %v %v", kind, attrs, ok, err)
	}
	if err := os.WriteFile(filepath.Join(dir, descriptorFile), []byte(`{"index":"Fancy"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); err == nil || !strings.Contains(err.Error(), "Fancy") {
		t.Fatalf("Open over an unknown kind: %v", err)
	}
}

// TestPreSeqSeqFloorFileAdopted: a database with tables but no
// descriptor takes the number of its SEQFLOOR file as its seq floor, in
// the descriptor it then records, and SEQFLOOR is gone.
func TestPreSeqSeqFloorFileAdopted(t *testing.T) {
	dir := copyFixture(t, filepath.Join(preseqDir, IndexLazy.String()))
	legacy := filepath.Join(dir, legacySeqFloorFile)
	if err := os.WriteFile(legacy, []byte("123\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := preseqOptions(IndexLazy)
	for i := 0; i < 2; i++ {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		floor, last := db.seqFloor, db.LastSeq()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if floor != 123 || last <= floor {
			t.Fatalf("open %d: seq floor %d, LastSeq %d; want 123 below LastSeq", i, floor, last)
		}
		if _, err := os.Stat(legacy); !os.IsNotExist(err) {
			t.Fatalf("open %d: SEQFLOOR still there: %v", i, err)
		}
		d, ok, err := readDescriptor(vfs.Default, dir)
		if !ok || err != nil || d.Index != "Lazy" || d.SeqFloor != 123 || !slices.Equal(d.Attrs, opts.Attrs) {
			t.Fatalf("open %d: descriptor %+v, ok %v, err %v", i, d, ok, err)
		}
	}
}

// TestCheckpointCopiesDescriptor checkpoints an Embedded and a Composite
// database, opens each copy as its descriptor says and holds its LOOKUP
// and RANGELOOKUP answers to the source's.
func TestCheckpointCopiesDescriptor(t *testing.T) {
	for _, kind := range []IndexKind{IndexEmbedded, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOptions(kind)
			opts.Attrs = []string{"CreationTime", "UserID"}
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			writeUsers(t, db, 400)
			for i := 0; i < 400; i += 7 {
				if err := db.Delete(fmt.Sprintf("t%03d", i)); err != nil {
					t.Fatal(err)
				}
			}
			cp := filepath.Join(t.TempDir(), "cp")
			if err := db.Checkpoint(cp); err != nil {
				t.Fatal(err)
			}
			kind, attrs, ok, err := ReadDescriptor(cp)
			if !ok || err != nil {
				t.Fatalf("checkpoint descriptor: ok %v, err %v", ok, err)
			}
			copyOpts := smallOptions(kind)
			copyOpts.Attrs = attrs
			cdb, err := Open(cp, copyOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer cdb.Close()
			for _, k := range []int{1, 5, 0} {
				for _, q := range []struct{ attr, lo, hi string }{
					{"UserID", "u1", "u1"}, {"UserID", "u3", "u3"}, {"UserID", "u2", "u4"},
					{"CreationTime", "0000001100", "0000001300"},
				} {
					var want, got []Entry
					var werr, gerr error
					if q.lo == q.hi {
						want, werr = db.Lookup(q.attr, q.lo, k)
						got, gerr = cdb.Lookup(q.attr, q.lo, k)
					} else {
						want, werr = db.RangeLookup(q.attr, q.lo, q.hi, k)
						got, gerr = cdb.RangeLookup(q.attr, q.lo, q.hi, k)
					}
					if werr != nil || gerr != nil || len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v k=%d: checkpoint answers %v (%v), source %v (%v)", q, k, got, gerr, want, werr)
					}
				}
			}
		})
	}
}
