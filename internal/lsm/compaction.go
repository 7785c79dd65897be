package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"leveldbpp/internal/cache"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/wal"
)

func openSSTable(r io.ReaderAt, size int64, stats *metrics.IOStats, c *cache.Cache) (*sstable.Table, error) {
	return sstable.OpenTableCached(r, size, stats, c)
}

// maxTableBytes is the target SSTable size (LevelDB's 2 MB).
const maxTableBytes = 2 << 20

// allocFileNum hands out the next SSTable file number. Atomic so the
// background flusher and compactor can allocate without holding db.mu.
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
// takes no locks and touches no mutable DB state, so the background
// flusher runs it off-lock on a frozen MemTable.
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

// flushLocked writes the MemTable to a new level-0 SSTable, persists the
// manifest, and restarts the WAL. Caller holds db.mu. In background mode
// this runs only with the pipeline drained (no frozen MemTable
// outstanding), from CompactRange.
func (db *DB) flushLocked() error {
	// flushedSeq below is set to lastSeq; wait out any group-commit
	// leader pass so every assigned sequence is in the MemTable first.
	db.waitCommitsLocked()
	db.emit(metrics.Event{Type: metrics.EventFlushStart, Level: 0,
		Entries: db.mem.list.Len(), Bytes: db.mem.approximateBytes()})
	flushT0 := time.Now()
	fm, err := db.buildMemTable(db.mem, db.allocFileNum())
	if err != nil {
		return err
	}
	// Newest first in level 0; install by copy so concurrent readers
	// holding the old version keep a stable view.
	nv := db.v.clone()
	nv.levels[0] = append([]*FileMeta{fm}, nv.levels[0]...)
	db.v = nv
	db.flushedSeq = db.lastSeq

	if err := saveManifest(db.dir, db.v.toManifest(db.nextFileNum.Load(), db.flushedSeq)); err != nil {
		return err
	}
	db.emit(metrics.Event{Type: metrics.EventFlushDone, Level: 0, Outputs: 1,
		Entries: fm.tbl.EntryCount(), Bytes: fm.Size,
		DurationUS: time.Since(flushT0).Microseconds()})

	// The MemTable is durable in the SSTable; restart the WAL. Any
	// leftover background segments backing it are obsolete too.
	db.logMu.Lock()
	err = db.log.Close()
	db.logMu.Unlock()
	if err != nil {
		return err
	}
	for _, p := range db.memWALs {
		if p != db.walFile() {
			_ = os.Remove(p)
		}
	}
	db.logMu.Lock()
	if db.bg != nil {
		_ = os.Remove(db.walFile())
		db.walSeq++
		seg := walSegmentPath(db.dir, db.walSeq)
		db.log, err = wal.Create(seg)
		db.memWALs = []string{seg}
		db.emit(metrics.Event{Type: metrics.EventWALRotate,
			Detail: fmt.Sprintf("segment=%d", db.walSeq)})
	} else {
		db.log, err = wal.Create(db.walFile())
		db.memWALs = []string{db.walFile()}
		db.emit(metrics.Event{Type: metrics.EventWALRotate, Detail: "restart"})
	}
	db.logMu.Unlock()
	if err != nil {
		return err
	}
	db.mem = newMemTable(db.opts.SecondaryAttrs)
	return nil
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
// level reserved by an in-flight background job.
func (db *DB) levelBusyLocked(l int) bool {
	return db.compactingLevels[l] || db.compactingLevels[l+1]
}

// compactionReadyLocked reports whether some *unreserved* level pair
// violates a shape invariant — the background scheduler's wake predicate.
// Unlike pickCompactionLocked it is side-effect free (no compaction
// pointer advance), so it is safe to evaluate repeatedly in a wait loop.
func (db *DB) compactionReadyLocked() bool {
	if len(db.v.levels[0]) >= db.opts.L0CompactionTrigger && !db.levelBusyLocked(0) {
		return true
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		if db.v.levelBytes(l) > db.maxBytesForLevel(l) && !db.levelBusyLocked(l) {
			return true
		}
	}
	return false
}

// maybeCompactLocked runs compactions until the tree satisfies all shape
// invariants. Caller holds db.mu. (Inline mode only.)
func (db *DB) maybeCompactLocked() error {
	for {
		job := db.pickCompactionLocked()
		if job == nil {
			return nil
		}
		if err := db.runCompactionInlineLocked(job); err != nil {
			return err
		}
	}
}

// compactionJob is one picked compaction: inputs from level, overlapping
// files from level+1, and the pick-time version (stable until install,
// since only one compaction runs at a time) for tombstone base checks.
type compactionJob struct {
	level  int
	inputs []*FileMeta
	next   []*FileMeta
	base   *version
}

// pickCompactionLocked chooses the next compaction with the same policy
// inline mode applies: L0 first (merge all of L0 with overlapping L1),
// then the shallowest over-budget level, one file round-robin (LevelDB's
// compaction pointer, paper §4.2). Returns nil when the tree is in shape.
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

// runCompactionInlineLocked merges and installs a job on the calling
// goroutine with db.mu held throughout — the inline-mode path, and
// CompactRange's path in both modes.
func (db *DB) runCompactionInlineLocked(job *compactionJob) error {
	db.emitCompactionStart(job)
	t0 := time.Now()
	tr := db.opts.Tracer.Start(metrics.OpCompact)
	outputs, err := db.runCompactionMerge(job, tr)
	tr.Finish()
	if err != nil {
		db.emitCompactionError(job, err)
		return err
	}
	if err := db.installCompactionLocked(job, outputs); err != nil {
		db.emitCompactionError(job, err)
		return err
	}
	db.emitCompactionDone(job, outputs, t0)
	return nil
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

// emitCompactionError reports a failed job. A sub-compaction failure
// carries the partition's user-key range, so a mid-merge error is
// attributable to the data that caused it.
func (db *DB) emitCompactionError(job *compactionJob, err error) {
	if db.opts.Events == nil {
		return
	}
	detail := err.Error()
	var se *subcompactionError
	if errors.As(err, &se) {
		detail = fmt.Sprintf("partition %s: %v", se.r, se.err)
	}
	db.emit(metrics.Event{Type: metrics.EventCompactionError, Level: job.level,
		Inputs: len(job.inputs) + len(job.next), Detail: detail})
}

// mergeSource is one input iterator of a compaction.
type mergeSource struct {
	it *sstable.Iterator
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return ikey.Compare(h[i].it.Key(), h[j].it.Key()) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runCompactionMerge merges job.inputs (from job.level) and job.next
// (from job.level+1) into new tables for job.level+1 and returns them. It
// reads only the job and immutable DB state, so the background compactor
// runs it without holding db.mu: input tables are immutable files, and
// job.base stays valid because concurrent jobs only move keys between
// levels deeper than this job's target (see compactor). With
// Options.CompactionParallelism > 1 the span is partitioned into key-range
// sub-compactions merged concurrently (subcompact.go); the ordered write
// stage keeps the outputs byte-identical either way.
func (db *DB) runCompactionMerge(job *compactionJob, tr *metrics.Trace) ([]*FileMeta, error) {
	all := append(append([]*FileMeta(nil), job.inputs...), job.next...)
	if bounds := partitionBoundaries(all, db.opts.CompactionParallelism); len(bounds) > 0 {
		return db.runCompactionParallel(job, all, bounds, tr)
	}
	return db.runCompactionSerial(job, all, tr)
}

// runCompactionSerial merges the whole span on the calling goroutine —
// the CompactionParallelism ≤ 1 engine, and the fallback when the inputs
// are too small to partition.
func (db *DB) runCompactionSerial(job *compactionJob, all []*FileMeta, tr *metrics.Trace) ([]*FileMeta, error) {
	target := job.level + 1
	t0 := time.Now()
	w := db.newCompactionWriter(tr)
	err := mergeGroups(all, keyRange{}, func(g *keyGroup) error {
		bottom := job.base.isBaseLevelForKey(target, g.key)
		return resolveGroup(db.opts.Merge, bottom, g, w.add)
	})
	var outputs []*FileMeta
	if err == nil {
		outputs, err = w.finish()
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	db.subcompactions.Add(1)
	tr.Add(metrics.PhaseCompactWrite, time.Duration(w.writeNS))
	tr.Add(metrics.PhaseCompactMerge, time.Since(t0)-time.Duration(w.writeNS))
	return outputs, nil
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
// after bulk deletes, and read-optimizing a cold dataset. In background
// mode it excludes the background compactor for its duration and drains
// the frozen MemTable first.
func (db *DB) CompactRange(lo, hi []byte) error {
	if db.bg != nil {
		// Lock order: compactionMu before db.mu (see background).
		db.bg.compactionMu.Lock()
		defer db.bg.compactionMu.Unlock()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.bg != nil {
		// Wait out any in-flight flush and every running compaction job;
		// the scheduler cannot start new ones (we hold compactionMu), so
		// after this loop we mutate levels alone.
		bg := db.bg
		for (db.imm != nil || bg.jobs > 0) && bg.err == nil && !bg.closing && !db.closed {
			db.cond.Wait()
		}
		if bg.err != nil {
			return bg.err
		}
		if bg.closing || db.closed {
			return ErrClosed
		}
	}
	if !db.mem.empty() {
		if err := db.flushLocked(); err != nil {
			return err
		}
	}
	if len(db.v.levels[0]) > 0 {
		if job := db.pickL0Locked(); job != nil {
			if err := db.runCompactionInlineLocked(job); err != nil {
				return err
			}
		}
	}
	for l := 1; l < db.opts.MaxLevels-1; l++ {
		for {
			overlapping := db.v.overlappingFiles(l, lo, hi)
			if len(overlapping) == 0 {
				break
			}
			// Skip when nothing deeper exists: the range already rests at
			// its final level.
			deeper := false
			for dl := l + 1; dl < db.opts.MaxLevels; dl++ {
				if len(db.v.levels[dl]) > 0 {
					deeper = true
				}
			}
			if !deeper && l == db.deepestNonEmptyLocked() {
				break
			}
			pick := overlapping[0]
			next := db.v.overlappingFiles(l+1, ikey.UserKey(pick.Smallest), ikey.UserKey(pick.Largest))
			job := &compactionJob{level: l, inputs: []*FileMeta{pick}, next: next, base: db.v}
			if err := db.runCompactionInlineLocked(job); err != nil {
				return err
			}
		}
	}
	return db.maybeCompactLocked()
}

func (db *DB) deepestNonEmptyLocked() int {
	for l := db.opts.MaxLevels - 1; l >= 0; l-- {
		if len(db.v.levels[l]) > 0 {
			return l
		}
	}
	return 0
}
