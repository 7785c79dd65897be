package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"leveldbpp/internal/vfs/vfstest"
)

// useFaultFS makes o's DB reach its files through a fresh vfstest.FS.
func useFaultFS(o *Options) *vfstest.FS {
	fs := vfstest.New()
	o.FS = fs
	return fs
}

// tableSync selects a table's Sync: the table's bytes are all written
// then, and no version references it.
func tableSync(op vfstest.Op, path string) bool {
	return op == vfstest.OpSync && filepath.Ext(path) == ".sst"
}

// onTableSync makes fn run first in every table's Sync; an error fails
// the Sync. A nil fn removes fs's hook.
func onTableSync(fs *vfstest.FS, fn func() error) {
	if fn == nil {
		fs.SetHook(nil)
		return
	}
	fs.SetHook(func(op vfstest.Op, path string) error {
		if tableSync(op, path) {
			return fn()
		}
		return nil
	})
}

// TestOpenFailsWhenListFails fails the directory listing of an Open over
// a database whose acknowledged writes are all in its WAL segment. Open
// must fail without touching the segment, whose records it cannot know
// about, and the next Open must replay every one of them.
func TestOpenFailsWhenListFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustPut(t, db, fmt.Sprintf("key-%02d", i), "value")
	}
	seg := activeWAL(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	o := smallOpts()
	fs := useFaultFS(o)
	errList := errors.New("too many open files")
	fs.SetHook(func(op vfstest.Op, _ string) error {
		if op == vfstest.OpList {
			return errList
		}
		return nil
	})
	if db, err := Open(dir, o); !errors.Is(err, errList) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with a failing List = %v, want %v", err, errList)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed Open changed %s (err %v): %d bytes, want %d", filepath.Base(seg), err, len(after), len(before))
	}

	fs.SetHook(nil)
	re, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 20; i++ {
		if v, ok := mustGet(t, re, fmt.Sprintf("key-%02d", i)); !ok || v != "value" {
			t.Fatalf("key-%02d = %q %v after the reopen", i, v, ok)
		}
	}
}
