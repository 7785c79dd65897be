package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"leveldbpp/internal/vfs"
)

// faultFS is the operating system's file system with the faults a test
// arms: one failing List, torn writes to the WAL segment created last,
// and a hook in every table's Sync.
type faultFS struct {
	vfs.FS
	mu        sync.Mutex
	listErr   error        // returned by the next List, once
	tableSync func() error // runs first in a table's Sync; an error fails it
	lastWAL   *tornFile
}

// useFaultFS makes o's DB reach its files through a fresh faultFS.
func useFaultFS(o *Options) *faultFS {
	fs := &faultFS{FS: vfs.Default}
	o.fs = fs
	return fs
}

func (fs *faultFS) List(dir string) ([]os.DirEntry, error) {
	fs.mu.Lock()
	err := fs.listErr
	fs.listErr = nil
	fs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return fs.FS.List(dir)
}

func (fs *faultFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, "WAL-"):
		tf := &tornFile{File: f, quota: -1}
		fs.mu.Lock()
		fs.lastWAL = tf
		fs.mu.Unlock()
		return tf, nil
	case filepath.Ext(base) == ".sst":
		return &hookedTable{File: f, fs: fs}, nil
	}
	return f, nil
}

// onTableSync sets the hook every table's Sync runs first (nil: none).
func (fs *faultFS) onTableSync(fn func() error) {
	fs.mu.Lock()
	fs.tableSync = fn
	fs.mu.Unlock()
}

// newestWAL returns the WAL segment created last.
func (fs *faultFS) newestWAL() *tornFile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lastWAL
}

// hookedTable is a table file whose Sync runs its faultFS's hook first:
// the table's bytes are all written then, and no version references it.
type hookedTable struct {
	vfs.File
	fs *faultFS
}

func (f *hookedTable) Sync() error {
	f.fs.mu.Lock()
	fn := f.fs.tableSync
	f.fs.mu.Unlock()
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// errTorn is what a tornFile's write crossing its quota returns.
var errTorn = errors.New("torn write")

// tornFile tears a write as a power loss would: once armed (quota ≥ 0),
// at most quota more bytes reach the file, and the write crossing that
// boundary is cut short and fails with errTorn. Arm it under the DB's
// logMu, which serializes the WAL's writes.
type tornFile struct {
	vfs.File
	quota int64 // -1 = disarmed
}

func (f *tornFile) Write(p []byte) (int, error) {
	if f.quota < 0 || int64(len(p)) <= f.quota {
		if f.quota >= 0 {
			f.quota -= int64(len(p))
		}
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.quota])
	f.quota = 0
	return n, errTorn
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
	fs.listErr = errList
	if db, err := Open(dir, o); !errors.Is(err, errList) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with a failing List = %v, want %v", err, errList)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed Open changed %s (err %v): %d bytes, want %d", filepath.Base(seg), err, len(after), len(before))
	}

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
