package lsm

import (
	"fmt"
	"time"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
)

// background holds the state of the flush/compaction pipeline. The
// pipeline has one flush job (flushImmLocked) and one compaction job
// (compactLocked), and no goroutine of its own: the writer that fills a
// MemTable runs both before its write returns, and Flush and CompactRange
// run them on the caller. A job drops db.mu for its table build or merge,
// so concurrent writers may run disjoint jobs at once. All fields are
// guarded by db.mu; db.cond is broadcast whenever any of them changes.
type background struct {
	closing bool  // guarded by db.mu; Close in progress: drain, accept no new work
	jobs    int   // guarded by db.mu; compaction jobs in flight
	err     error // guarded by db.mu; sticky first flush failure; poisons writes
}

// pipelineErrLocked reports why the pipeline accepts no work: ErrClosed
// once the DB is closed or closing, the sticky failure otherwise; nil
// while it is serving.
func (db *DB) pipelineErrLocked() error {
	if db.closed {
		return ErrClosed
	}
	if db.bg.err != nil {
		return db.bg.err
	}
	if db.bg.closing {
		return ErrClosed
	}
	return nil
}

// rotateMemLocked is the write path's handoff point for a full MemTable:
// it freezes and flushes the MemTable, then runs the compactions the
// flush triggered on the writer, as the paper's single-threaded LevelDB
// does.
func (db *DB) rotateMemLocked() error {
	if err := db.freezeMemLocked(false); err != nil {
		return err
	}
	return db.compactToShapeLocked()
}

// freezeMemLocked swaps in a fresh MemTable + WAL segment and runs the
// flush job on the frozen MemTable before returning. At most one frozen
// MemTable is outstanding, and whoever froze it owns its flush, so each
// is flushed exactly once; a second freeze waits for the slot. force
// freezes a MemTable of any size (Flush, CompactRange); without it a
// freeze is skipped when another caller already rotated while this one
// waited for the slot.
func (db *DB) freezeMemLocked(force bool) error {
	// Also wait out in-flight commit leader passes: immSeq below is set to
	// lastSeq, which must be fully present in the MemTable being frozen or
	// the flush would advance the manifest floor over records that only
	// exist in the outgoing WAL segment.
	for (db.imm != nil || db.commitsInFlight > 0) && db.pipelineErrLocked() == nil {
		db.cond.Wait()
	}
	if err := db.pipelineErrLocked(); err != nil {
		return err
	}
	if db.mem.empty() || !force && db.mem.approximateBytes() < db.opts.MemTableBytes/2 {
		return nil
	}
	db.walSeq++
	seg := walSegmentPath(db.dir, db.walSeq)
	db.logMu.Lock()
	err := db.log.Close()
	var log *wal.Writer
	if err == nil {
		log, err = wal.Create(seg)
		db.log = log
	}
	db.logMu.Unlock()
	if err != nil {
		return err
	}
	db.imm = db.mem
	db.immSeq = db.lastSeq
	db.immWALs = db.memWALs
	db.mem = newMemTable(db.opts.SecondaryAttrs)
	db.memWALs = []string{seg}
	db.emit(metrics.Event{Type: metrics.EventMemFreeze,
		Entries: db.imm.list.Len(), Bytes: db.imm.approximateBytes()})
	db.emit(metrics.Event{Type: metrics.EventWALRotate,
		Detail: fmt.Sprintf("segment=%d", db.walSeq)})
	return db.flushImmLocked()
}

// settleLocked runs the pending compactions on the caller, then blocks
// until no MemTable is frozen, no compaction job is in flight and the
// tree satisfies every shape invariant.
func (db *DB) settleLocked() error {
	for db.pipelineErrLocked() == nil {
		if err := db.compactToShapeLocked(); err != nil {
			return err
		}
		if db.imm == nil && db.bg.jobs == 0 && !db.needsCompactionLocked() {
			return nil
		}
		db.cond.Wait()
	}
	return db.pipelineErrLocked()
}

// awaitIdleLocked blocks until no MemTable is frozen and no compaction
// job is in flight.
func (db *DB) awaitIdleLocked() error {
	for (db.imm != nil || db.bg.jobs > 0) && db.pipelineErrLocked() == nil {
		db.cond.Wait()
	}
	return db.pipelineErrLocked()
}

// flushImmLocked is the pipeline's flush job: it builds the frozen
// MemTable into a level-0 table off-lock, installs it with one version
// edit that also advances the flushed floor and retires the frozen
// MemTable's WAL files, and wakes waiters. Caller holds db.mu and owns the
// frozen MemTable's flush (see freezeMemLocked); db.mu is released across
// the build. A failure is sticky: the frozen MemTable stays in place and
// its WAL files preserve it for recovery.
func (db *DB) flushImmLocked() error {
	imm, immSeq, immWALs := db.imm, db.immSeq, db.immWALs
	fileNum := db.allocFileNum()
	hook := db.testBlockFlush
	db.emit(metrics.Event{Type: metrics.EventFlushStart, Level: 0,
		Entries: imm.list.Len(), Bytes: imm.approximateBytes()})
	t0 := time.Now()
	db.mu.Unlock()
	if hook != nil {
		<-hook
	}
	fm, err := db.buildMemTable(imm, fileNum)
	e := &versionEdit{level: 0, added: []*FileMeta{fm}, flushedSeq: immSeq, retiredWALs: immWALs}
	if err == nil && fm.tbl.EntryCount() == 0 {
		// A Merger can elide every key of the MemTable; the empty table
		// it leaves has no key range and is not installed.
		db.dropTable(fm)
		e.added = nil
	}
	db.mu.Lock()
	if err == nil {
		err = db.applyEditLocked(e)
	}
	if err != nil {
		// Sticky: later writes and Flush return it; wake whoever waits.
		if db.bg.err == nil {
			db.bg.err = err
		}
		db.cond.Broadcast()
		return err
	}
	db.imm = nil
	db.immWALs = nil
	db.emitDone(metrics.EventFlushDone, 0, 0, e.added, t0)
	db.cond.Broadcast() // wake writers waiting for the imm slot, and drains
	return nil
}
