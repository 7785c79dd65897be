// Package vfstest is the engine's test file system: the operating
// system's, with a hook that can fail or park any operation, and a file
// that can be torn as a power loss would tear it. Only tests import it.
package vfstest

import (
	"errors"
	"os"
	"sync"

	"leveldbpp/internal/vfs"
)

// Op names an operation a Hook sees: the FS's, and Write and Sync on a
// file the FS created.
type Op string

const (
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpList     Op = "list"
	OpMkdirAll Op = "mkdirall"
	OpStat     Op = "stat"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
)

// Hook runs before an operation on path (Rename's old name). An error
// fails the operation; while the hook blocks, the operation is parked.
type Hook func(op Op, path string) error

// ErrTorn is what a write crossing a torn file's quota returns.
var ErrTorn = errors.New("vfstest: torn write")

// FS is the operating system's file system with a Hook before every
// operation. Its mu is a leaf, taken under the engine's locks: only
// field accesses run under it, never the hook or a file call.
//
//lsm:lockorder lsm.DB.logMu < vfstest.FS.mu
type FS struct {
	vfs.FS
	mu    sync.Mutex
	hook  Hook   // guarded by mu
	torn  string // guarded by mu; the path Tear armed
	quota int64  // guarded by mu; the bytes still let through to torn
}

// New returns an FS over the operating system's, with no hook.
func New() *FS { return &FS{FS: vfs.Default} }

// SetHook makes hook run before every later operation; nil removes it.
func (fs *FS) SetHook(hook Hook) {
	fs.mu.Lock()
	fs.hook = hook
	fs.mu.Unlock()
}

// Park parks every later operation match accepts until release, which
// also removes the hook. parked is closed when the first one parks.
func (fs *FS) Park(match func(op Op, path string) bool) (parked <-chan struct{}, release func()) {
	first, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.SetHook(func(op Op, path string) error {
		if match(op, path) {
			once.Do(func() { close(first) })
			<-gate
		}
		return nil
	})
	return first, func() {
		fs.SetHook(nil)
		close(gate)
	}
}

// Tear lets at most quota more bytes reach the file created at path, as
// a power loss would: the write crossing that boundary is cut short and
// fails with ErrTorn, and so does every write after it.
func (fs *FS) Tear(path string, quota int64) {
	fs.mu.Lock()
	fs.torn, fs.quota = path, quota
	fs.mu.Unlock()
}

// before runs the hook without holding mu, so a parked operation does not
// stop the others.
func (fs *FS) before(op Op, path string) error {
	fs.mu.Lock()
	hook := fs.hook
	fs.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(op, path)
}

func (fs *FS) Create(name string) (vfs.File, error) {
	if err := fs.before(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs, name: name}, nil
}

func (fs *FS) Open(name string) (vfs.File, error) {
	if err := fs.before(OpOpen, name); err != nil {
		return nil, err
	}
	return fs.FS.Open(name)
}

func (fs *FS) Rename(oldname, newname string) error {
	if err := fs.before(OpRename, oldname); err != nil {
		return err
	}
	return fs.FS.Rename(oldname, newname)
}

func (fs *FS) Remove(name string) error {
	if err := fs.before(OpRemove, name); err != nil {
		return err
	}
	return fs.FS.Remove(name)
}

func (fs *FS) List(dir string) ([]os.DirEntry, error) {
	if err := fs.before(OpList, dir); err != nil {
		return nil, err
	}
	return fs.FS.List(dir)
}

func (fs *FS) MkdirAll(dir string) error {
	if err := fs.before(OpMkdirAll, dir); err != nil {
		return err
	}
	return fs.FS.MkdirAll(dir)
}

func (fs *FS) Stat(name string) (os.FileInfo, error) {
	if err := fs.before(OpStat, name); err != nil {
		return nil, err
	}
	return fs.FS.Stat(name)
}

// file is a file its FS created: Write and Sync run the hook first.
type file struct {
	vfs.File
	fs   *FS
	name string
}

func (f *file) Write(p []byte) (int, error) {
	if err := f.fs.before(OpWrite, f.name); err != nil {
		return 0, err
	}
	quota := int64(len(p))
	f.fs.mu.Lock()
	if f.name == f.fs.torn {
		quota = f.fs.quota
		f.fs.quota = max(quota-int64(len(p)), 0)
	}
	f.fs.mu.Unlock()
	if int64(len(p)) <= quota {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:quota])
	return n, errors.Join(ErrTorn, err)
}

func (f *file) Sync() error {
	if err := f.fs.before(OpSync, f.name); err != nil {
		return err
	}
	return f.File.Sync()
}
