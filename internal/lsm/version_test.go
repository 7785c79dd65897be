package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/sstable"
)

// buildTable writes keys, which must be sorted, at seqs above LastSeq into
// a new table that no version references. With no keys the table is
// empty, which no flush or compaction writes.
func buildTable(t *testing.T, db *DB, keys ...string) *FileMeta {
	t.Helper()
	num := db.allocFileNum()
	f, err := os.Create(tablePath(db.dir, num))
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, db.opts.tableOptions(false))
	for i, k := range keys {
		if err := b.Add(ikey.Make([]byte(k), db.LastSeq()+uint64(i)+1, ikey.KindSet), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	size, err := b.Finish()
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	fm, err := db.openTable(fileRecord{Num: num, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// tableNums returns the file numbers of each level of db's version.
func tableNums(db *DB) [][]uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([][]uint64, len(db.v.levels))
	for l, files := range db.v.levels {
		for _, fm := range files {
			out[l] = append(out[l], fm.Num)
		}
	}
	return out
}

// manifestNums returns the file numbers of each level of dir's MANIFEST.
func manifestNums(t *testing.T, dir string) [][]uint64 {
	t.Helper()
	m, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("load manifest: %v (ok=%v)", err, ok)
	}
	out := make([][]uint64, len(m.Levels))
	for l, files := range m.Levels {
		for _, fr := range files {
			out[l] = append(out[l], fr.Num)
		}
	}
	return out
}

// checkMatchesDisk fails unless db's version lists the tables of its
// MANIFEST and no other table file is on disk.
func checkMatchesDisk(t *testing.T, db *DB, dir, when string) {
	t.Helper()
	if mem, disk := tableNums(db), manifestNums(t, dir); !reflect.DeepEqual(mem, disk) {
		t.Fatalf("%s: version holds %v, MANIFEST %v", when, mem, disk)
	}
	if orphans := orphanTables(t, dir); len(orphans) != 0 {
		t.Fatalf("%s: unreferenced tables %v", when, orphans)
	}
}

// blockManifest makes every manifest write fail until the returned func
// runs: the temp file's name is taken by a directory.
func blockManifest(t *testing.T, dir string) (unblock func()) {
	t.Helper()
	tmp := manifestPath(dir) + ".tmp"
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInstallFailureChangesNothing fails the manifest write of a
// compaction and of a flush. The version in memory must still be the one
// on disk, with no table file left unreferenced; a compaction can be
// retried, and a failed flush poisons later writes.
func TestInstallFailureChangesNothing(t *testing.T) {
	t.Run("CompactRange", func(t *testing.T) {
		o := smallOpts()
		o.L0CompactionTrigger = 1 << 20
		db, dir := openTestDB(t, o)
		want := map[string]string{}
		for i := 0; i < 400; i++ {
			k, v := fmt.Sprintf("key%04d", i%150), fmt.Sprintf("val%04d", i)
			mustPut(t, db, k, v)
			want[k] = v
			if i%100 == 99 {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := len(levelsOf(db)[0]); n < 2 {
			t.Fatalf("%d level-0 tables, want several to compact", n)
		}
		unblock := blockManifest(t, dir)
		if err := db.CompactRange(nil, nil); err == nil {
			t.Fatal("CompactRange succeeded without a manifest")
		}
		checkMatchesDisk(t, db, dir, "after the failed compaction")
		checkContents(t, db, want, "after the failed compaction")

		unblock()
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatalf("retried CompactRange: %v", err)
		}
		checkMatchesDisk(t, db, dir, "after the retry")
		checkContents(t, db, want, "after the retry")
		if rep, err := db.Verify(); err != nil || !rep.OK() {
			t.Fatalf("verify: %v %v", err, rep.Problems)
		}
	})
	t.Run("Flush", func(t *testing.T) {
		db, dir := openTestDB(t, smallOpts())
		mustPut(t, db, "first", "1")
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		mustPut(t, db, "second", "2")
		blockManifest(t, dir)
		flushErr := db.Flush()
		if flushErr == nil {
			t.Fatal("Flush succeeded without a manifest")
		}
		checkMatchesDisk(t, db, dir, "after the failed flush")
		if err := db.Put([]byte("third"), []byte("3")); !errors.Is(err, flushErr) {
			t.Fatalf("Put after the failed flush = %v, want the sticky %v", err, flushErr)
		}
	})
}

// TestApplyEditRefusesBadEdits feeds applyEditLocked an edit that adds an
// empty table and one whose table overlaps a table left in its level:
// each must fail, leave the version and the MANIFEST as they were, and
// drop the added table.
func TestApplyEditRefusesBadEdits(t *testing.T) {
	db, dir := openTestDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key%04d", i), "v")
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	l1 := levelsOf(db)[1]
	if len(l1) == 0 {
		t.Fatal("no level-1 table to overlap")
	}
	for _, c := range []struct {
		name  string
		level int
		keys  []string
	}{
		{"empty table", 0, nil},
		{"overlapping L1 table", 1, []string{string(ikey.UserKey(l1[0].Largest))}},
	} {
		fm := buildTable(t, db, c.keys...)
		before, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		v := db.v
		err = db.applyEditLocked(&versionEdit{level: c.level, added: []*FileMeta{fm}, flushedSeq: db.flushedSeq})
		swapped := db.v != v
		db.mu.Unlock()
		if err == nil || swapped {
			t.Fatalf("%s: applyEditLocked = %v, version swapped %v; want refused", c.name, err, swapped)
		}
		after, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: refused edit rewrote the MANIFEST", c.name)
		}
		if _, err := os.Stat(tablePath(dir, fm.Num)); !os.IsNotExist(err) {
			t.Fatalf("%s: table %s of the refused edit still on disk (%v)", c.name, filepath.Base(tablePath(dir, fm.Num)), err)
		}
	}
	if rep, err := db.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}
