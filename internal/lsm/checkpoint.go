package lsm

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"leveldbpp/internal/vfs"
)

// Checkpoint writes a consistent, openable copy of the database to
// destDir (which must not exist). It runs under the read lock, so the
// SSTables and WAL it copies and the manifest it writes describe one
// instant, the installed version: no install can interleave. It writes
// that version's manifest rather than copy the MANIFEST file, which a
// finished handoff may already have moved ahead of it. The checkpoint
// contains everything written before the call, including MemTable
// contents (via the copied WAL).
func (db *DB) Checkpoint(destDir string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	fs := db.opts.FS
	if _, err := fs.Stat(destDir); err == nil {
		return fmt.Errorf("lsm: checkpoint destination %q already exists", destDir)
	}
	if err := fs.MkdirAll(destDir); err != nil {
		return fmt.Errorf("lsm: create checkpoint dir: %w", err)
	}

	// Tables first, then WAL, then the manifest last — if the copy is
	// interrupted, a manifest-less directory is obviously not a database
	// rather than subtly truncated.
	for _, level := range db.v.levels {
		for _, fm := range level {
			if err := copyFile(fs, tablePath(db.dir, fm.Num), destDir); err != nil {
				return fmt.Errorf("lsm: checkpoint table: %w", err)
			}
		}
	}
	// Copy every WAL file backing the live and frozen MemTables under its
	// original basename — the segments, plus a legacy "WAL" file that no
	// flush has deleted yet; replay at open visits them all. The read lock
	// alone does not exclude WAL appends (a commit leader writes off
	// db.mu), so hold logMu across the copies and flush the writer's
	// buffer first: everything acknowledged before this call is then in
	// the copied files.
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if db.log != nil { // nil after a failed WAL rotation closed the last segment
		if err := db.log.Flush(); err != nil {
			return fmt.Errorf("lsm: checkpoint flush WAL: %w", err)
		}
	}
	for _, p := range slices.Concat(db.immWALs, db.memWALs) {
		if err := copyFile(fs, p, destDir); err != nil {
			return fmt.Errorf("lsm: checkpoint WAL: %w", err)
		}
	}
	m := db.v.toManifest(db.nextFileNum.Load(), db.flushedSeq)
	if err := writeSynced(fs, manifestPath(destDir), bytes.NewReader(m.encode())); err != nil {
		return fmt.Errorf("lsm: checkpoint manifest: %w", err)
	}
	return nil
}

// copyFile copies src into dir under its base name and syncs the copy.
func copyFile(fs vfs.FS, src, dir string) error {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return writeSynced(fs, filepath.Join(dir, filepath.Base(src)), in)
}

// writeSynced writes what r reads into a new file at path and syncs it.
func writeSynced(fs vfs.FS, path string, r io.Reader) error {
	out, err := fs.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, r)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
