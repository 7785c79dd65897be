package lsm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint writes a consistent, openable copy of the database to
// destDir (which must not exist). It runs under the read lock, so the
// copied MANIFEST, SSTables and WAL describe one instant: no flush or
// compaction can interleave. The checkpoint contains everything written
// before the call, including MemTable contents (via the copied WAL).
func (db *DB) Checkpoint(destDir string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if _, err := os.Stat(destDir); err == nil {
		return fmt.Errorf("lsm: checkpoint destination %q already exists", destDir)
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return fmt.Errorf("lsm: create checkpoint dir: %w", err)
	}

	copyFile := func(src, dst string) error {
		in, err := os.Open(src)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			_ = out.Close()
			return err
		}
		return out.Close()
	}

	// Tables first, then WAL, then the manifest last — if the copy is
	// interrupted, a manifest-less directory is obviously not a database
	// rather than subtly truncated.
	for _, level := range db.v.levels {
		for _, fm := range level {
			name := fmt.Sprintf("%06d.sst", fm.Num)
			if err := copyFile(tablePath(db.dir, fm.Num), filepath.Join(destDir, name)); err != nil {
				return fmt.Errorf("lsm: checkpoint table %s: %w", name, err)
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
	copied := map[string]bool{}
	for _, p := range append(append([]string(nil), db.immWALs...), db.memWALs...) {
		if copied[p] {
			continue
		}
		copied[p] = true
		if _, err := os.Stat(p); err == nil {
			if err := copyFile(p, filepath.Join(destDir, filepath.Base(p))); err != nil {
				return fmt.Errorf("lsm: checkpoint WAL %s: %w", filepath.Base(p), err)
			}
		}
	}
	if _, err := os.Stat(manifestPath(db.dir)); err == nil {
		if err := copyFile(manifestPath(db.dir), manifestPath(destDir)); err != nil {
			return fmt.Errorf("lsm: checkpoint manifest: %w", err)
		}
	}
	return nil
}
