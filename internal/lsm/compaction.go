package lsm

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
)

// maxTableBytes is the target SSTable size (LevelDB's 2 MB).
const maxTableBytes = 2 << 20

// allocFileNum hands out the next SSTable file number. Atomic so a
// compaction can allocate output numbers off-lock.
func (db *DB) allocFileNum() uint64 {
	return db.nextFileNum.Add(1) - 1
}

// maxBytesForLevel returns the size threshold that triggers compaction out
// of level l (l ≥ 1): BaseLevelBytes · LevelMultiplier^(l-1).
func (db *DB) maxBytesForLevel(l int) int64 {
	n := db.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		n *= int64(db.opts.LevelMultiplier)
	}
	return n
}

// buildMemTable writes mem's contents to a new SSTable and opens it. It
// takes no locks and touches no mutable DB state, so the flush job runs
// it off-lock on a frozen MemTable.
func (db *DB) buildMemTable(mem *memTable, fileNum uint64) (*FileMeta, error) {
	path := tablePath(db.dir, fileNum)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: create sstable: %w", err)
	}
	builder := sstable.NewBuilder(f, db.opts.tableOptions(false))
	it := mem.iter()
	var prevUser []byte
	var attrs []sstable.AttrValue
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik, val := it.Key(), it.Value()
		uk := ikey.UserKey(ik)
		// The engine has no snapshots, so only the newest version of each
		// user key needs to survive the flush (entries arrive newest
		// first). This also guarantees one entry per user key per table,
		// which the Embedded lookup's validity check relies on.
		if prevUser != nil && bytes.Equal(prevUser, uk) {
			continue
		}
		prevUser = append(prevUser[:0], uk...)
		attrs = attrs[:0]
		if db.opts.Extract != nil && ikey.KindOf(ik) == ikey.KindSet {
			attrs = db.opts.Extract(attrs, uk, val)
		}
		if err := builder.Add(ik, val, attrs); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	size, err := builder.Finish()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return db.openTable(fileRecord{Num: fileNum, Size: size})
}

// needsCompactionLocked reports whether any shape invariant is violated.
func (db *DB) needsCompactionLocked() bool {
	if len(db.v.levels[0]) >= db.opts.L0CompactionTrigger {
		return true
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		if db.v.levelBytes(l) > db.maxBytesForLevel(l) {
			return true
		}
	}
	return false
}

// levelBusyLocked reports whether a job out of level l would touch a
// level reserved by an in-flight compaction job.
func (db *DB) levelBusyLocked(l int) bool {
	return db.compactingLevels[l] || db.compactingLevels[l+1]
}

// compactionLevelLocked returns the level the next compaction runs out
// of, considering only unreserved level pairs: 0 once L0 reaches its
// trigger, else the shallowest over-budget level; -1 when none needs a
// compaction. Unlike pickCompactionLocked it is side-effect free (no
// compaction pointer advance), so the runner evaluates it in its wait
// loop.
func (db *DB) compactionLevelLocked() int {
	if len(db.v.levels[0]) >= db.opts.L0CompactionTrigger && !db.levelBusyLocked(0) {
		return 0
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		if db.v.levelBytes(l) > db.maxBytesForLevel(l) && !db.levelBusyLocked(l) {
			return l
		}
	}
	return -1
}

// compactionJob is one picked compaction: inputs from level, overlapping
// files from level+1, and the pick-time version for tombstone base
// checks.
//
// base stays valid until install although other jobs may run meanwhile:
// a job at levels (l, l+1) only consults levels deeper than l+1, and every
// other runnable job holds a disjoint reserved level pair, so it moves
// keys between such deeper levels (or shallower ones). A key present
// below the target at pick time can at worst disappear, which makes the
// check conservative (bottom=false keeps a tombstone one round longer),
// never wrong.
type compactionJob struct {
	level  int
	inputs []*FileMeta
	next   []*FileMeta
	base   *version
}

// pickCompactionLocked chooses the next compaction among unreserved level
// pairs: L0 first (merge all of L0 with overlapping L1), then the
// shallowest over-budget level, one file round-robin (LevelDB's
// compaction pointer, paper §4.2). Returns nil when no unreserved pair
// needs a compaction.
func (db *DB) pickCompactionLocked() *compactionJob {
	switch l := db.compactionLevelLocked(); l {
	case -1:
		return nil
	case 0:
		return db.pickL0Locked()
	default:
		return db.pickLevelLocked(l)
	}
}

// pickL0Locked builds the job that merges every level-0 file with the
// overlapping files of level 1.
func (db *DB) pickL0Locked() *compactionJob {
	inputs := append([]*FileMeta(nil), db.v.levels[0]...)
	if len(inputs) == 0 {
		return nil
	}
	var lo, hi []byte
	for _, fm := range inputs {
		s, l := ikey.UserKey(fm.Smallest), ikey.UserKey(fm.Largest)
		if lo == nil || bytes.Compare(s, lo) < 0 {
			lo = s
		}
		if hi == nil || bytes.Compare(l, hi) > 0 {
			hi = l
		}
	}
	next := db.v.overlappingFiles(1, lo, hi)
	return &compactionJob{level: 0, inputs: inputs, next: next, base: db.v}
}

// pickLevelLocked picks one file of level l round-robin and the
// overlapping files of level l+1, advancing the compaction pointer.
func (db *DB) pickLevelLocked(l int) *compactionJob {
	files := db.v.levels[l]
	if len(files) == 0 {
		return nil
	}
	pick := files[0]
	if ptr := db.compactPtr[l]; ptr != nil {
		for _, fm := range files {
			if bytes.Compare(ikey.UserKey(fm.Smallest), ptr) > 0 {
				pick = fm
				break
			}
		}
	}
	db.compactPtr[l] = append([]byte(nil), ikey.UserKey(pick.Largest)...)
	next := db.v.overlappingFiles(l+1, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
	return &compactionJob{level: l, inputs: []*FileMeta{pick}, next: next, base: db.v}
}

// compactLocked is the pipeline's compaction job, run by the background
// runner, by the deterministic drain and by CompactRange: it reserves the
// job's level pair, merges off-lock, installs the outputs, releases the
// pair and wakes waiters. Caller holds db.mu, which is released across
// the merge.
func (db *DB) compactLocked(job *compactionJob) error {
	bg := db.bg
	bg.jobs++
	db.compactingLevels[job.level] = true
	db.compactingLevels[job.level+1] = true
	db.emitCompactionStart(job)
	db.mu.Unlock()
	t0 := time.Now()
	tr := db.opts.Tracer.Start(metrics.OpCompact)
	outputs, err := db.mergeCompaction(job, tr)
	tr.Finish()
	db.mu.Lock()
	if err == nil {
		err = db.installCompactionLocked(job, outputs)
	}
	bg.jobs--
	db.compactingLevels[job.level] = false
	db.compactingLevels[job.level+1] = false
	db.cond.Broadcast() // wake throttled writers, drains and the runner
	if err != nil {
		db.emitCompactionError(job, err)
		return err
	}
	db.emitCompactionDone(job, outputs, t0)
	bg.compactions++
	return nil
}

// compactToShapeLocked runs compaction jobs on the calling goroutine until
// no unreserved level pair needs one: the deterministic drain, and
// CompactRange's tail in both modes. Caller holds db.mu.
func (db *DB) compactToShapeLocked() error {
	for db.pipelineErrLocked() == nil {
		job := db.pickCompactionLocked()
		if job == nil {
			return nil
		}
		if err := db.compactLocked(job); err != nil {
			return err
		}
	}
	return db.pipelineErrLocked()
}

// emitCompactionStart reports a picked job: source level, input file count
// across both levels, and input bytes.
func (db *DB) emitCompactionStart(job *compactionJob) {
	if db.opts.Events == nil {
		return
	}
	var inBytes int64
	for _, fm := range job.inputs {
		inBytes += fm.Size
	}
	for _, fm := range job.next {
		inBytes += fm.Size
	}
	db.emit(metrics.Event{Type: metrics.EventCompactionStart, Level: job.level,
		Inputs: len(job.inputs) + len(job.next), Bytes: inBytes})
}

// emitCompactionDone reports an installed job: output file count, bytes
// and entries, plus wall-clock duration since t0.
func (db *DB) emitCompactionDone(job *compactionJob, outputs []*FileMeta, t0 time.Time) {
	if db.opts.Events == nil {
		return
	}
	var outBytes int64
	entries := 0
	for _, fm := range outputs {
		outBytes += fm.Size
		entries += fm.tbl.EntryCount()
	}
	db.emit(metrics.Event{Type: metrics.EventCompactionDone, Level: job.level,
		Inputs: len(job.inputs) + len(job.next), Outputs: len(outputs),
		Bytes: outBytes, Entries: entries,
		DurationUS: time.Since(t0).Microseconds()})
}

// emitCompactionError reports a failed job with its error.
func (db *DB) emitCompactionError(job *compactionJob, err error) {
	if db.opts.Events == nil {
		return
	}
	db.emit(metrics.Event{Type: metrics.EventCompactionError, Level: job.level,
		Inputs: len(job.inputs) + len(job.next), Detail: err.Error()})
}

// installCompactionLocked swaps in a version with the job's inputs
// replaced by its outputs, persists the manifest, and removes the input
// files. It filters dead files against the *current* version, so L0
// tables flushed while the merge ran off-lock survive. Caller holds
// db.mu; readers hold RLock for their whole operation, so nothing reads
// the inputs once the exclusive section completes.
func (db *DB) installCompactionLocked(job *compactionJob, outputs []*FileMeta) error {
	target := job.level + 1
	all := append(append([]*FileMeta(nil), job.inputs...), job.next...)
	dead := map[uint64]bool{}
	for _, fm := range all {
		dead[fm.Num] = true
	}
	nv := db.v.clone()
	var keepL []*FileMeta
	for _, fm := range nv.levels[job.level] {
		if !dead[fm.Num] {
			keepL = append(keepL, fm)
		}
	}
	nv.levels[job.level] = keepL
	var keepT []*FileMeta
	for _, fm := range nv.levels[target] {
		if !dead[fm.Num] {
			keepT = append(keepT, fm)
		}
	}
	// Insert outputs sorted by smallest key (they are produced in order,
	// and target-level survivors don't overlap them).
	merged := append(keepT, outputs...)
	sortFilesBySmallest(merged)
	nv.levels[target] = merged
	db.v = nv

	if err := saveManifest(db.dir, db.v.toManifest(db.nextFileNum.Load(), db.flushedSeq)); err != nil {
		return err
	}
	for _, fm := range all {
		if db.blockCache != nil {
			db.blockCache.EvictTable(fm.tbl.ID())
		}
		_ = fm.f.Close()
		_ = os.Remove(tablePath(db.dir, fm.Num))
	}
	return nil
}

func sortFilesBySmallest(files []*FileMeta) {
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && ikey.Compare(files[j].Smallest, files[j-1].Smallest) < 0; j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
}

// CompactRange forces the user-key range [lo, hi] (nil = unbounded) down
// the tree until every level except the deepest non-empty one is clear of
// it — LevelDB's manual compaction. Useful for tests, space reclamation
// after bulk deletes, and read-optimizing a cold dataset. It flushes the
// MemTable first, then runs each compaction job on the caller once no
// other job is in flight; the background runner picks no new jobs for its
// duration.
func (db *DB) CompactRange(lo, hi []byte) error {
	// Lock order: compactionMu before db.mu (see background).
	db.bg.compactionMu.Lock()
	defer db.bg.compactionMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.freezeMemLocked(true); err != nil {
		return err
	}
	if err := db.awaitIdleLocked(); err != nil {
		return err
	}
	if job := db.pickL0Locked(); job != nil {
		if err := db.compactLocked(job); err != nil {
			return err
		}
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		for {
			if err := db.awaitIdleLocked(); err != nil {
				return err
			}
			overlapping := db.v.overlappingFiles(l, lo, hi)
			if len(overlapping) == 0 {
				break
			}
			// Skip when nothing deeper exists: the range already rests at
			// its final level.
			if l == db.deepestNonEmptyLocked() {
				break
			}
			pick := overlapping[0]
			next := db.v.overlappingFiles(l+1, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
			job := &compactionJob{level: l, inputs: []*FileMeta{pick}, next: next, base: db.v}
			if err := db.compactLocked(job); err != nil {
				return err
			}
		}
	}
	return db.compactToShapeLocked()
}

func (db *DB) deepestNonEmptyLocked() int {
	for l := db.opts.MaxLevels - 1; l >= 0; l-- {
		if len(db.v.levels[l]) > 0 {
			return l
		}
	}
	return 0
}
