// Package vfs is the engine's one way to its files: lsm, wal and core
// reach the file system only through an FS, so a test can hand the engine
// one that fails or tears an operation. Default is the operating system's.
package vfs

import (
	"io"
	"os"
)

// File is an open file.
type File interface {
	io.ReadWriteCloser
	io.ReaderAt
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS holds the file operations the engine performs.
type FS interface {
	// Create creates name, or truncates it, open for reading and writing.
	Create(name string) (File, error)
	Open(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// List returns dir's entries, sorted by name.
	List(dir string) ([]os.DirEntry, error)
	MkdirAll(dir string) error
	Stat(name string) (os.FileInfo, error)
}

// Default is the operating system's file system.
var Default FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return file(os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644))
}

func (osFS) Open(name string) (File, error) { return file(os.Open(name)) }

// file keeps a failed open's nil *os.File out of the File it returns.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) List(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }
func (osFS) Stat(name string) (os.FileInfo, error)  { return os.Stat(name) }

// ReadFile returns the content of name.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFile replaces name's content with data: it writes name.tmp and
// renames it over name, so a reader finds the old content or the new,
// never part of it. It syncs neither the file nor the directory.
func WriteFile(fs FS, name string, data []byte) error {
	f, err := fs.Create(name + ".tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fs.Rename(name+".tmp", name)
}
