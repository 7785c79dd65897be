package lsm

import (
	"bytes"
	"slices"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// maxTableBytes is the target SSTable size (LevelDB's 2 MB).
const maxTableBytes = 2 << 20

// allocFileNum hands out the next SSTable file number. Atomic so a flush
// or compaction can allocate output numbers off-lock.
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

// compactionJob is one picked compaction: inputs (the picked files of
// level, then the overlapping files of level+1, in merge order) and the
// pick-time version for tombstone base checks.
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
	base   *version
}

// jobLocked builds the job that merges files, picked from level, with the
// files of level+1 overlapping the user keys [lo, hi].
func (db *DB) jobLocked(level int, files []*FileMeta, lo, hi []byte) *compactionJob {
	inputs := slices.Concat(files, overlappingFiles(db.v.levels[level+1], lo, hi))
	return &compactionJob{level: level, inputs: inputs, base: db.v}
}

// pickCompactionLocked chooses the next compaction among unreserved level
// pairs: L0 first once it reaches its trigger (merge all of L0 with
// overlapping L1), then the shallowest over-budget level, one file
// round-robin (LevelDB's compaction pointer, paper §4.2). Returns nil
// when no unreserved pair needs a compaction.
func (db *DB) pickCompactionLocked() *compactionJob {
	if len(db.v.levels[0]) >= db.opts.L0CompactionTrigger && !db.levelBusyLocked(0) {
		return db.pickL0Locked()
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		if db.v.levelBytes(l) > db.maxBytesForLevel(l) && !db.levelBusyLocked(l) {
			return db.pickLevelLocked(l)
		}
	}
	return nil
}

// pickL0Locked builds the job that merges every level-0 file with the
// overlapping files of level 1.
func (db *DB) pickL0Locked() *compactionJob {
	files := db.v.levels[0]
	if len(files) == 0 {
		return nil
	}
	var lo, hi []byte
	for _, fm := range files {
		s, l := ikey.UserKey(fm.Smallest), ikey.UserKey(fm.Largest)
		if lo == nil || bytes.Compare(s, lo) < 0 {
			lo = s
		}
		if hi == nil || bytes.Compare(l, hi) > 0 {
			hi = l
		}
	}
	return db.jobLocked(0, files, lo, hi)
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
	return db.jobLocked(l, []*FileMeta{pick}, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
}

// compactLocked is the pipeline's compaction job, run by the writer's
// drain and by CompactRange: it reserves the job's level pair, merges
// off-lock, installs the outputs, releases the pair and wakes waiters.
// Caller holds db.mu, which is released across the merge.
func (db *DB) compactLocked(job *compactionJob) error {
	db.bg.jobs++
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
		// The edit applies to the current version, so L0 tables flushed
		// while the merge ran off-lock survive it.
		err = db.applyEditLocked(&versionEdit{level: job.level + 1,
			added: outputs, deleted: job.inputs, flushedSeq: db.flushedSeq})
	}
	db.bg.jobs--
	db.compactingLevels[job.level] = false
	db.compactingLevels[job.level+1] = false
	db.cond.Broadcast() // wake Flush, CompactRange and Close waiting on the pipeline
	if err != nil {
		db.emitCompactionError(job, err)
		return err
	}
	db.emitDone(metrics.EventCompactionDone, job.level, len(job.inputs), outputs, t0)
	return nil
}

// compactToShapeLocked runs compaction jobs on the calling goroutine until
// no unreserved level pair needs one: the writer's drain, and
// CompactRange's tail. Caller holds db.mu.
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
	db.emit(metrics.Event{Type: metrics.EventCompactionStart, Level: job.level,
		Inputs: len(job.inputs), Bytes: inBytes})
}

// emitDone reports an installed flush or compaction job: input file
// count, output file count, bytes and entries, and duration since t0.
func (db *DB) emitDone(typ metrics.EventType, level, inputs int, outputs []*FileMeta, t0 time.Time) {
	if db.opts.Events == nil {
		return
	}
	e := metrics.Event{Type: typ, Level: level, Inputs: inputs, Outputs: len(outputs),
		DurationUS: time.Since(t0).Microseconds()}
	for _, fm := range outputs {
		e.Bytes += fm.Size
		e.Entries += fm.tbl.EntryCount()
	}
	db.emit(e)
}

// emitCompactionError reports a failed job with its error.
func (db *DB) emitCompactionError(job *compactionJob, err error) {
	if db.opts.Events == nil {
		return
	}
	db.emit(metrics.Event{Type: metrics.EventCompactionError, Level: job.level,
		Inputs: len(job.inputs), Detail: err.Error()})
}

// CompactRange forces the user-key range [lo, hi] (nil = unbounded) down
// the tree until every level except the deepest non-empty one is clear of
// it — LevelDB's manual compaction. Useful for tests, space reclamation
// after bulk deletes, and read-optimizing a cold dataset. It flushes the
// MemTable first, then runs each compaction job on the caller once no
// other job is in flight. Writers and other CompactRange calls may run
// jobs on other level pairs while a job drops db.mu for its merge; the
// level-pair reservation keeps their file sets disjoint.
func (db *DB) CompactRange(lo, hi []byte) error {
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
			overlapping := overlappingFiles(db.v.levels[l], lo, hi)
			if len(overlapping) == 0 {
				break
			}
			// Skip when nothing deeper exists: the range already rests at
			// its final level.
			if l == db.deepestNonEmptyLocked() {
				break
			}
			pick := overlapping[0]
			job := db.jobLocked(l, []*FileMeta{pick}, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
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
