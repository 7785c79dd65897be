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

// maxGrandparentOverlapBytes bounds a trivial move: tables moved into
// level+1 that overlap more than this in level+2 would set up an expensive
// next compaction there, so they are rewritten instead (LevelDB's
// MaxGrandParentOverlapBytes, ten target tables).
const maxGrandparentOverlapBytes = 10 * maxTableBytes

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

// compactionLevel returns the level a compaction must drain from in v:
// 0 once level 0 reaches its trigger, else the shallowest level over its
// byte budget, or -1 when v is in shape.
func (db *DB) compactionLevel(v *version) int {
	if len(v.levels[0]) >= db.opts.L0CompactionTrigger {
		return 0
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		if v.levelBytes(l) > db.maxBytesForLevel(l) {
			return l
		}
	}
	return -1
}

// compactionJob is one picked compaction: inputs (the picked files of
// level, then the overlapping files of level+1, in merge order), how many
// of them were picked from level, and the staged version it was picked
// from, for tombstone base checks. A handoff runs its jobs one at a
// time, so base is also the version the job's edit applies to.
type compactionJob struct {
	level  int
	inputs []*FileMeta
	picked int
	base   *version
}

// job builds the job that merges files, picked from level, with the
// files of level+1 overlapping the user keys [lo, hi].
func (h *handoff) job(level int, files []*FileMeta, lo, hi []byte) *compactionJob {
	inputs := slices.Concat(files, overlappingFiles(h.v.levels[level+1], lo, hi))
	return &compactionJob{level: level, inputs: inputs, picked: len(files), base: h.v}
}

// trivialMove reports whether job can go to level+1 by a version edit
// alone, as LevelDB's Compaction::IsTrivialMove: nothing in level+1
// overlaps the picked files, they are pairwise disjoint (a whole level-0
// set may qualify, not only one file), and the files of level+2 they
// overlap total at most maxGrandparentOverlapBytes.
func (h *handoff) trivialMove(job *compactionJob) bool {
	if len(job.inputs) != job.picked {
		return false
	}
	in := slices.Clone(job.inputs)
	slices.SortFunc(in, func(a, b *FileMeta) int { return ikey.Compare(a.Smallest, b.Smallest) })
	for i := 1; i < len(in); i++ {
		if bytes.Compare(ikey.UserKey(in[i-1].Largest), ikey.UserKey(in[i].Smallest)) >= 0 {
			return false
		}
	}
	if gp := job.level + 2; gp < len(h.v.levels) {
		var overlap int64
		for _, fm := range h.v.levels[gp] {
			if slices.ContainsFunc(in, func(m *FileMeta) bool {
				return fm.overlapsUser(ikey.UserKey(m.Smallest), ikey.UserKey(m.Largest))
			}) {
				overlap += fm.Size
			}
		}
		if overlap > maxGrandparentOverlapBytes {
			return false
		}
	}
	return true
}

// pickCompaction chooses the next compaction of the staged version: L0
// first once it reaches its trigger (merge all of L0 with overlapping
// L1), then the shallowest over-budget level, one file round-robin
// (LevelDB's compaction pointer, paper §4.2). Returns nil when the
// staged version is in shape.
func (h *handoff) pickCompaction() *compactionJob {
	switch l := h.db.compactionLevel(h.v); l {
	case -1:
		return nil
	case 0:
		return h.pickL0()
	default:
		return h.pickLevel(l)
	}
}

// pickL0 builds the job that merges every level-0 file with the
// overlapping files of level 1.
func (h *handoff) pickL0() *compactionJob {
	files := h.v.levels[0]
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
	return h.job(0, files, lo, hi)
}

// pickLevel picks one file of level l round-robin and the overlapping
// files of level l+1, advancing the compaction pointer.
func (h *handoff) pickLevel(l int) *compactionJob {
	files := h.v.levels[l]
	pick := files[0]
	if ptr := h.compactPtr[l]; ptr != nil {
		for _, fm := range files {
			if bytes.Compare(ikey.UserKey(fm.Smallest), ptr) > 0 {
				pick = fm
				break
			}
		}
	}
	h.compactPtr[l] = append([]byte(nil), ikey.UserKey(pick.Largest)...)
	return h.job(l, []*FileMeta{pick}, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
}

// compact is the pipeline's compaction job, run by the drain and by
// CompactRange's handoff: it merges job's inputs into new tables for
// job.level+1 and stages the edit that swaps them in.
func (h *handoff) compact(job *compactionJob) error {
	db := h.db
	s := step{job: job, start: db.compactionStartEvent(job)}
	t0 := time.Now()
	tr := db.opts.Tracer.Start(metrics.OpCompact)
	outputs, err := db.mergeCompaction(job, tr)
	tr.Finish()
	if err == nil {
		e := &versionEdit{level: job.level + 1, added: outputs, deleted: job.inputs, flushedSeq: h.flushedSeq}
		if err = h.stage(e); err == nil {
			s.edit, s.done = e, db.doneEvent(metrics.EventCompactionDone, job.level, len(job.inputs), e, t0)
		}
	}
	s.err = err
	h.steps = append(h.steps, s)
	return err
}

// move is a trivial move: one version edit deletes job's inputs from
// job.level and adds the same tables, unread and unwritten, to
// job.level+1. No compaction is traced.
func (h *handoff) move(job *compactionJob) error {
	db := h.db
	s := step{job: job}
	e := &versionEdit{level: job.level + 1, added: job.inputs, deleted: job.inputs, flushedSeq: h.flushedSeq}
	s.err = h.stage(e)
	if s.err == nil {
		s.edit = e
		if db.opts.Events != nil {
			s.done = metrics.Event{Type: metrics.EventTrivialMove, Level: job.level, Inputs: len(job.inputs), Detail: e.String()}
		}
	}
	h.steps = append(h.steps, s)
	return s.err
}

// drain stages compaction jobs until the staged version is in shape. A
// job that qualifies is a trivial move; every other job merges.
func (h *handoff) drain() error {
	for job := h.pickCompaction(); job != nil; job = h.pickCompaction() {
		run := h.compact
		if h.trivialMove(job) {
			run = h.move
		}
		if err := run(job); err != nil {
			return err
		}
	}
	return nil
}

// compactRange stages CompactRange's jobs: all of level 0 with the
// overlapping level-1 tables, then, level by level, each table
// overlapping [lo, hi] until the range rests in the deepest non-empty
// level. These jobs always merge, as LevelDB's manual compaction does,
// so they drop the range's base-level tombstones.
func (h *handoff) compactRange(lo, hi []byte) error {
	if job := h.pickL0(); job != nil {
		if err := h.compact(job); err != nil {
			return err
		}
	}
	for l := 1; l < h.db.opts.MaxLevels-1; l++ {
		for {
			overlapping := overlappingFiles(h.v.levels[l], lo, hi)
			// Stop when nothing deeper exists: the range already rests at
			// its final level.
			if len(overlapping) == 0 || l == h.v.deepestNonEmpty() {
				break
			}
			pick := overlapping[0]
			if err := h.compact(h.job(l, []*FileMeta{pick}, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactionStartEvent reports a picked job: source level, input file
// count across both levels, and input bytes.
func (db *DB) compactionStartEvent(job *compactionJob) metrics.Event {
	if db.opts.Events == nil {
		return metrics.Event{}
	}
	var inBytes int64
	for _, fm := range job.inputs {
		inBytes += fm.Size
	}
	return metrics.Event{Type: metrics.EventCompactionStart, Level: job.level,
		Inputs: len(job.inputs), Bytes: inBytes}
}

// doneEvent reports a staged flush or compaction job: input file count,
// output file count, bytes and entries, duration since t0, and its
// version edit.
func (db *DB) doneEvent(typ metrics.EventType, level, inputs int, edit *versionEdit, t0 time.Time) metrics.Event {
	if db.opts.Events == nil {
		return metrics.Event{}
	}
	e := metrics.Event{Type: typ, Level: level, Inputs: inputs, Outputs: len(edit.added),
		DurationUS: time.Since(t0).Microseconds(), Detail: edit.String()}
	for _, fm := range edit.added {
		e.Bytes += fm.Size
		e.Entries += fm.tbl.EntryCount()
	}
	return e
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
// after bulk deletes, and read-optimizing a cold dataset. It installs the
// pending handoff, freezes the MemTable and hands its flush, the range's
// compactions and the drain to one handoff, then waits for it and
// installs it. The range's jobs always merge; only the drain after them
// may move tables. Writers that fill the MemTable meanwhile wait for the
// handoff at their freeze.
func (db *DB) CompactRange(lo, hi []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	h, err := db.freezeMemLocked(true, &keyRange{lo, hi})
	if err != nil {
		return err
	}
	return db.awaitLocked(h)
}
