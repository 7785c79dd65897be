package lsm

import (
	"fmt"
	"os"
	"sync"
	"time"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
)

// background holds the state of the flush/compaction pipeline. The
// pipeline has one flush job (flushImmLocked) and one compaction job
// (compactLocked); Options.BackgroundCompaction decides only who runs
// them. In deterministic mode (the default) the writer that fills a
// MemTable runs both before its write returns, and Flush and CompactRange
// run them on the caller. In background mode a flusher goroutine and a
// compaction runner goroutine run them, and writers only freeze
// MemTables. All fields except compactionMu and wg are guarded by db.mu;
// db.cond is broadcast whenever any of them changes.
type background struct {
	wg      sync.WaitGroup
	closing bool  // guarded by db.mu; Close in progress: drain, accept no new work
	jobs    int   // guarded by db.mu; compaction jobs in flight
	err     error // guarded by db.mu; sticky first pipeline failure; poisons writes

	// compactionMu serializes compaction *picking* between the background
	// runner and manual CompactRange: the runner holds it only while it
	// picks a job (db.mu stays held until the job is reserved);
	// CompactRange holds it for its whole duration, so once running jobs
	// drain the runner starts no new ones. Lock order: compactionMu before
	// db.mu, never the reverse.
	compactionMu sync.Mutex

	// Throttle state for edge-triggered event emission: engage/release
	// events fire on transitions, not per delayed write.
	stopEngaged     bool // guarded by db.mu
	slowdownEngaged bool // guarded by db.mu
}

// startBackground launches the flusher and the compaction runner.
func (db *DB) startBackground() {
	db.bg.wg.Add(2)
	go db.flusher()
	go db.compactor()
}

// stopBackground drains the pipeline: it refuses new work, waits for the
// in-flight flush and compaction jobs (whoever runs them) and joins the
// background goroutines. Writers arriving during the drain receive
// ErrClosed.
func (db *DB) stopBackground() {
	db.mu.Lock()
	bg := db.bg
	if db.closed {
		db.mu.Unlock()
		return
	}
	bg.closing = true
	db.cond.Broadcast()
	for (db.imm != nil || bg.jobs > 0) && bg.err == nil {
		db.cond.Wait()
	}
	db.mu.Unlock()
	bg.wg.Wait()
}

// failLocked records the first pipeline failure and wakes everyone
// blocked on the pipeline; subsequent writes and Flush return the error.
func (bg *background) failLocked(db *DB, err error) {
	if bg.err == nil {
		bg.err = err
	}
	db.cond.Broadcast()
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

// LevelDB's level-0 write-control triggers, in files, for background mode.
const (
	l0SlowdownTrigger = 8
	l0StopTrigger     = 12
)

// throttleLocked admits a write. It fails once the pipeline stopped
// serving, and in background mode applies LevelDB-style write control: a
// single ~1ms delay per write once L0 reaches the slowdown trigger, and a
// full stall (condition wait) at the stop trigger so writers degrade
// gracefully instead of racing compaction. Deterministic mode never
// throttles: its writers compact L0 themselves.
func (db *DB) throttleLocked(tr *metrics.Trace) error {
	if err := db.pipelineErrLocked(); err != nil || !db.opts.BackgroundCompaction {
		return err
	}
	t0 := tr.Now()
	defer tr.Since(metrics.PhaseThrottle, t0)
	bg := db.bg
	stalled := false
	for len(db.v.levels[0]) >= l0StopTrigger && db.pipelineErrLocked() == nil {
		if !bg.stopEngaged {
			bg.stopEngaged = true
			db.emit(metrics.Event{Type: metrics.EventStopOn, Level: 0,
				Detail: fmt.Sprintf("l0_files=%d", len(db.v.levels[0]))})
		}
		stalled = true
		t0 := time.Now()
		db.cond.Wait()
		db.opts.Stats.StallNanos.Add(int64(time.Since(t0)))
	}
	if bg.stopEngaged && len(db.v.levels[0]) < l0StopTrigger {
		bg.stopEngaged = false
		db.emit(metrics.Event{Type: metrics.EventStopOff, Level: 0,
			Detail: fmt.Sprintf("l0_files=%d", len(db.v.levels[0]))})
	}
	if err := db.pipelineErrLocked(); err != nil {
		return err
	}
	if !stalled && len(db.v.levels[0]) >= l0SlowdownTrigger {
		if !bg.slowdownEngaged {
			bg.slowdownEngaged = true
			db.emit(metrics.Event{Type: metrics.EventSlowdownOn, Level: 0,
				Detail: fmt.Sprintf("l0_files=%d", len(db.v.levels[0]))})
		}
		db.mu.Unlock()
		time.Sleep(time.Millisecond)
		db.mu.Lock()
		return db.pipelineErrLocked()
	}
	if bg.slowdownEngaged && len(db.v.levels[0]) < l0SlowdownTrigger {
		bg.slowdownEngaged = false
		db.emit(metrics.Event{Type: metrics.EventSlowdownOff, Level: 0,
			Detail: fmt.Sprintf("l0_files=%d", len(db.v.levels[0]))})
	}
	return nil
}

// rotateMemLocked is the write path's handoff point for a full MemTable:
// it freezes the MemTable for the flush job and, in deterministic mode,
// then runs the compactions the flush triggered on the writer, as the
// paper's single-threaded LevelDB does.
func (db *DB) rotateMemLocked() error {
	if err := db.freezeMemLocked(false); err != nil || db.opts.BackgroundCompaction {
		return err
	}
	return db.compactToShapeLocked()
}

// freezeMemLocked swaps in a fresh MemTable + WAL segment and hands the
// frozen MemTable to the flush job: background mode wakes the flusher,
// deterministic mode runs the job on the calling goroutine before
// returning. At most one frozen MemTable is outstanding, and whoever
// froze it owns its flush, so each is flushed exactly once; a second
// freeze waits for the slot. force freezes a MemTable of any size
// (Flush, CompactRange); without it a freeze is skipped when another
// caller already rotated while this one waited for the slot.
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
	if db.opts.BackgroundCompaction {
		db.cond.Broadcast() // wake the flusher
		return nil
	}
	return db.flushImmLocked()
}

// settleLocked blocks until no MemTable is frozen, no compaction job is in
// flight and the tree satisfies every shape invariant. In deterministic
// mode the caller runs the pending compactions itself; in background mode
// it waits for the runner.
func (db *DB) settleLocked() error {
	for db.pipelineErrLocked() == nil {
		if !db.opts.BackgroundCompaction {
			if err := db.compactToShapeLocked(); err != nil {
				return err
			}
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
// MemTable into a level-0 table off-lock, installs it by version copy,
// writes the manifest, deletes the frozen MemTable's WAL files and wakes
// waiters. Caller holds db.mu and owns the frozen MemTable's flush (see
// freezeMemLocked); db.mu is released across the build. A failure is
// sticky: the frozen MemTable stays in place and its WAL files preserve
// it for recovery.
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
	db.mu.Lock()
	if err == nil {
		// Newest first in level 0; install by copy so concurrent readers
		// holding the old version keep a stable view.
		nv := db.v.clone()
		nv.levels[0] = append([]*FileMeta{fm}, nv.levels[0]...)
		db.v = nv
		db.flushedSeq = immSeq
		err = saveManifest(db.dir, db.v.toManifest(db.nextFileNum.Load(), db.flushedSeq))
	}
	if err != nil {
		db.bg.failLocked(db, err)
		return err
	}
	// The frozen MemTable is durable in the SSTable; its WAL files are no
	// longer needed (a crash before this point replays them and skips
	// records at or below the manifest floor).
	db.imm = nil
	db.immWALs = nil
	db.emit(metrics.Event{Type: metrics.EventFlushDone, Level: 0, Outputs: 1,
		Entries: fm.tbl.EntryCount(), Bytes: fm.Size,
		DurationUS: time.Since(t0).Microseconds()})
	for _, p := range immWALs {
		_ = os.Remove(p)
	}
	db.cond.Broadcast() // wake writers waiting for the imm slot, drains and the runner
	return nil
}

// flusher is the background goroutine that runs the flush job on each
// frozen MemTable. On Close it flushes a pending frozen MemTable before
// exiting; after a failure it exits (the WAL segments preserve the frozen
// contents for recovery).
func (db *DB) flusher() {
	bg := db.bg
	defer bg.wg.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for bg.err == nil {
		if db.imm != nil {
			_ = db.flushImmLocked() // a failure is sticky and ends the loop
			continue
		}
		if bg.closing {
			return
		}
		db.cond.Wait()
	}
}

// compactor is the background compaction runner: it waits until some
// unreserved level pair violates a shape invariant, picks a job under
// compactionMu+db.mu (the same L0-first, round-robin policy the
// deterministic drain applies) and runs the compaction job, whose merge
// runs outside both locks. A failure is sticky and stops the pipeline.
func (db *DB) compactor() {
	bg := db.bg
	defer bg.wg.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		for db.compactionLevelLocked() < 0 && db.pipelineErrLocked() == nil {
			db.cond.Wait()
		}
		if db.pipelineErrLocked() != nil {
			return
		}
		// Lock order: compactionMu before db.mu (see background). The tree
		// may change while db.mu is dropped; a nil pick loops back to the
		// wait. db.mu stays held from the pick to the job's reservation.
		db.mu.Unlock()
		bg.compactionMu.Lock()
		db.mu.Lock()
		job := db.pickCompactionLocked()
		bg.compactionMu.Unlock()
		if job != nil {
			if err := db.compactLocked(job); err != nil {
				bg.failLocked(db, err)
			}
		}
	}
}
