package lsm

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/vfs"
)

// FileMeta describes one SSTable in the tree: its file number, size, key
// range, and the open table handle (all tables stay open, mirroring the
// paper's max_open_files=30000 configuration that keeps every filter in
// memory).
type FileMeta struct {
	Num      uint64
	Size     int64
	Smallest []byte // internal key
	Largest  []byte // internal key
	tbl      *sstable.Table
	f        vfs.File
}

// Table returns the open table handle.
func (fm *FileMeta) Table() *sstable.Table { return fm.tbl }

func (fm *FileMeta) overlapsUser(loUser, hiUser []byte) bool {
	// [loUser, hiUser] inclusive, nil means unbounded.
	if hiUser != nil && bytes.Compare(ikey.UserKey(fm.Smallest), hiUser) > 0 {
		return false
	}
	if loUser != nil && bytes.Compare(ikey.UserKey(fm.Largest), loUser) < 0 {
		return false
	}
	return true
}

// Overlaps reports whether the table's user keys intersect [lo, hiExcl);
// a nil bound is unbounded.
func (fm *FileMeta) Overlaps(lo, hiExcl []byte) bool {
	return (hiExcl == nil || bytes.Compare(ikey.UserKey(fm.Smallest), hiExcl) < 0) &&
		(lo == nil || bytes.Compare(ikey.UserKey(fm.Largest), lo) >= 0)
}

// version is the current shape of the tree: levels[0] holds overlapping
// files ordered newest-first; deeper levels hold disjoint files sorted by
// smallest key. strata is its read order, newest first: each level-0
// table, then each non-empty deeper level.
type version struct {
	levels [][]*FileMeta
	strata []Stratum
}

func newVersion(maxLevels int) *version {
	return &version{levels: make([][]*FileMeta, maxLevels)}
}

// buildStrata fills strata from levels, with each deeper level's tables
// also by descending MaxSeq for Stratum.NewestFirst. A version is
// immutable once installed, so its read order is built once per edit, not
// per read.
func (v *version) buildStrata() {
	v.strata = make([]Stratum, 0, len(v.levels[0])+len(v.levels)-1)
	for i := range v.levels[0] {
		v.strata = append(v.strata, Stratum{Tables: v.levels[0][i : i+1 : i+1]})
	}
	for l := 1; l < len(v.levels); l++ {
		if files := v.levels[l]; len(files) > 0 {
			newest := slices.Clone(files)
			slices.SortStableFunc(newest, func(a, b *FileMeta) int { return cmp.Compare(b.tbl.MaxSeq(), a.tbl.MaxSeq()) })
			v.strata = append(v.strata, Stratum{Level: l, Tables: files, newest: newest})
		}
	}
}

// versionEdit is one change to the tree, built by a flush or a compaction
// and installed by applyEditLocked: the tables added to level, the tables
// deleted from any level, the new flushed floor (the manifest's LastSeq)
// and the WAL segments that floor retires (a crash before the manifest
// write replays them above the old floor).
type versionEdit struct {
	level       int
	added       []*FileMeta
	deleted     []*FileMeta
	flushedSeq  uint64
	retiredWALs []string
}

// String renders e for an event's detail: the target level, the added
// and deleted table numbers and the flushed floor.
func (e *versionEdit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "L%d", e.level)
	for _, fm := range e.added {
		fmt.Fprintf(&sb, " +%06d", fm.Num)
	}
	for _, fm := range e.deleted {
		fmt.Fprintf(&sb, " -%06d", fm.Num)
	}
	fmt.Fprintf(&sb, " floor=%d", e.flushedSeq)
	return sb.String()
}

// apply returns the version after e, in fresh level slices: a reader (or
// a handoff staging its edits) holding v keeps a stable view. e's tables go in
// front of level 0 (newest first) or sorted by smallest key into a deeper
// level. The result must pass check.
func (v *version) apply(e *versionEdit) (*version, error) {
	nv := newVersion(len(v.levels))
	for l, files := range v.levels {
		var keep []*FileMeta
		if l == e.level {
			keep = append(keep, e.added...)
		}
		for _, fm := range files {
			if !slices.Contains(e.deleted, fm) {
				keep = append(keep, fm)
			}
		}
		if l == e.level && l > 0 {
			slices.SortFunc(keep, func(a, b *FileMeta) int { return ikey.Compare(a.Smallest, b.Smallest) })
		}
		nv.levels[l] = keep
	}
	if problems := nv.check(); len(problems) > 0 {
		return nil, fmt.Errorf("lsm: version edit refused: %s", strings.Join(problems, "; "))
	}
	nv.buildStrata()
	return nv, nil
}

// check states the level-shape invariants and returns one message per
// violation: no table is empty, and in every level ≥ 1 each table starts
// after the one before it ends (sorted and disjoint).
func (v *version) check() []string {
	var problems []string
	for l, files := range v.levels {
		for i, fm := range files {
			if fm.tbl.EntryCount() == 0 {
				problems = append(problems, fmt.Sprintf("level %d: table %06d is empty", l, fm.Num))
			}
			if l > 0 && i > 0 && bytes.Compare(ikey.UserKey(files[i-1].Largest), ikey.UserKey(fm.Smallest)) >= 0 {
				problems = append(problems, fmt.Sprintf("level %d: tables %06d and %06d overlap (%q >= %q)",
					l, files[i-1].Num, fm.Num, ikey.UserKey(files[i-1].Largest), ikey.UserKey(fm.Smallest)))
			}
		}
	}
	return problems
}

// levelBytes sums file sizes in a level.
func (v *version) levelBytes(level int) int64 {
	var n int64
	for _, f := range v.levels[level] {
		n += f.Size
	}
	return n
}

// deepestNonEmpty returns the deepest level holding a table, or 0.
func (v *version) deepestNonEmpty() int {
	for l := len(v.levels) - 1; l > 0; l-- {
		if len(v.levels[l]) > 0 {
			return l
		}
	}
	return 0
}

// overlappingFiles returns the files whose user-key range intersects
// [loUser, hiUser].
func overlappingFiles(files []*FileMeta, loUser, hiUser []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range files {
		if f.overlapsUser(loUser, hiUser) {
			out = append(out, f)
		}
	}
	return out
}

// findFile binary-searches the files of a sorted (level ≥ 1) level for the
// single file that may contain userKey.
func findFile(files []*FileMeta, userKey []byte) *FileMeta {
	i := sort.Search(len(files), func(i int) bool {
		return bytes.Compare(ikey.UserKey(files[i].Largest), userKey) >= 0
	})
	if i < len(files) && bytes.Compare(ikey.UserKey(files[i].Smallest), userKey) <= 0 {
		return files[i]
	}
	return nil
}

// isBaseLevelForKey reports that no level deeper than level contains
// userKey's range, so tombstones may be dropped.
func (v *version) isBaseLevelForKey(level int, userKey []byte) bool {
	for l := level + 1; l < len(v.levels); l++ {
		for _, f := range v.levels[l] {
			if f.overlapsUser(userKey, userKey) {
				return false
			}
		}
	}
	return true
}

// applyEditLocked is the one way the tree in memory changes: it builds
// the version after e, swaps it in, advances the flushed floor, drops e's
// deleted tables and removes its retired WAL segments (readers hold RLock
// throughout, so none still reads them). The handoff that staged e has
// already written the manifest. A refused edit only drops e's added
// tables. A table both added and deleted (a trivial move) lives on in
// either case. Caller holds db.mu.
func (db *DB) applyEditLocked(e *versionEdit) error {
	nv, err := db.v.apply(e)
	if err != nil {
		db.dropTablesExcept(e.added, e.deleted)
		return err
	}
	db.v, db.flushedSeq = nv, e.flushedSeq
	db.dropTablesExcept(e.deleted, e.added)
	for _, p := range e.retiredWALs {
		_ = db.opts.FS.Remove(p)
	}
	return nil
}

// dropTablesExcept drops the tables of fms that keep does not hold.
func (db *DB) dropTablesExcept(fms, keep []*FileMeta) {
	for _, fm := range fms {
		if !slices.Contains(keep, fm) {
			db.dropTable(fm)
		}
	}
}

// dropTable retires tables that no installed version references: it
// evicts each one's cached blocks, closes it and unlinks its file. A table
// still being written has a file but no table handle yet.
func (db *DB) dropTable(fms ...*FileMeta) {
	for _, fm := range fms {
		if db.blockCache != nil && fm.tbl != nil {
			db.blockCache.EvictTable(fm.tbl.ID())
		}
		_ = fm.f.Close()
		_ = db.opts.FS.Remove(tablePath(db.dir, fm.Num))
	}
}

// --- manifest persistence ---------------------------------------------

// manifest is the JSON-serialized tree state. A handoff's goroutine
// rewrites it whole (temp file + rename, neither fsynced) once its jobs
// are done, with the version they staged, before the writer swaps that
// version into db.v; Checkpoint writes db.v's into its copy.
type manifest struct {
	NextFileNum uint64         `json:"next_file_num"`
	LastSeq     uint64         `json:"last_seq"`
	Levels      [][]fileRecord `json:"levels"`
}

type fileRecord struct {
	Num      uint64 `json:"num"`
	Size     int64  `json:"size"`
	Smallest string `json:"smallest"` // base64 internal key
	Largest  string `json:"largest"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// encode renders m as the bytes of a manifest file.
func (m manifest) encode() []byte {
	data, _ := json.MarshalIndent(m, "", " ") // numbers and strings: cannot fail
	return data
}

func saveManifest(fs vfs.FS, dir string, m manifest) error {
	if err := vfs.WriteFile(fs, manifestPath(dir), m.encode()); err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	return nil
}

// loadManifest returns dir's manifest, or ok false if it has none.
func loadManifest(fs vfs.FS, dir string) (m manifest, ok bool, err error) {
	data, err := vfs.ReadFile(fs, manifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return m, false, nil
	}
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		return m, false, fmt.Errorf("lsm: manifest: %w", err)
	}
	return m, true, nil
}

func (v *version) toManifest(nextFileNum, lastSeq uint64) manifest {
	m := manifest{NextFileNum: nextFileNum, LastSeq: lastSeq, Levels: make([][]fileRecord, len(v.levels))}
	for l, files := range v.levels {
		for _, f := range files {
			m.Levels[l] = append(m.Levels[l], fileRecord{
				Num:      f.Num,
				Size:     f.Size,
				Smallest: base64.StdEncoding.EncodeToString(f.Smallest),
				Largest:  base64.StdEncoding.EncodeToString(f.Largest),
			})
		}
	}
	return m
}

func tablePath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", num))
}
