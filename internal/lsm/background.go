package lsm

import (
	"fmt"
	"slices"
	"time"

	"leveldbpp/internal/metrics"
)

// background holds the state of the flush/compaction pipeline. Its one
// unit of work is a handoff: when the writer freezes a MemTable it hands
// the frozen MemTable's flush, and the compactions that follow, to a
// goroutine started for that handoff and returns at once. The goroutine
// stages every version edit and applies none; the writer installs them
// at its next freeze, and Flush, CompactRange and Close install them
// before they return. At most one handoff is pending. All fields are
// guarded by db.mu.
type background struct {
	closing bool     // guarded by db.mu; Close in progress: accept no new work
	err     error    // guarded by db.mu; sticky first flush or WAL rotation failure; poisons writes
	pending *handoff // guarded by db.mu; the handoff not installed yet
}

// handoff is one run of the pipeline: the flush of the MemTable frozen
// with it (if any), the compactions of a CompactRange (if any), and the
// drain that brings the tree back into shape. Its goroutine runs the jobs
// in that order against a private staged version, with the picks,
// compaction-pointer moves, trivial moves and file numbers the jobs would
// have had on the writer, and stops at the first failure. It then writes
// the staged version's manifest, once. installLocked applies the staged
// edits in order, in memory only. Until then readers see the frozen
// MemTable and the version the handoff started from, so every version
// change happens at a fixed operation count.
//
// db through manual are set when the handoff starts and never change. The
// goroutine owns v through manifestErr until done closes; they are
// read-only after it.
type handoff struct {
	db      *DB
	imm     *memTable // the frozen MemTable to flush; nil for none
	immSeq  uint64    // highest seq in imm: the flush's floor
	immWALs []string  // WAL files backing imm, retired by its flush
	manual  *keyRange // CompactRange's range; nil for none

	v           *version // staged version: the installed one plus steps
	compactPtr  [][]byte // staged per-level compaction cursors
	flushedSeq  uint64   // staged flushed floor
	steps       []step   // staged jobs, in order
	manifestErr error    // the failed write of v's manifest; nil when written or not needed

	done       chan struct{} // closed when the goroutine returns
	installErr error         // guarded by db.mu; the install's outcome
}

// keyRange is CompactRange's user-key range [lo, hi]; nil is unbounded.
type keyRange struct{ lo, hi []byte }

// step is one staged job: the event that starts it (none for a trivial
// move), its version edit and the event that reports it installed — or
// err, the failure that ended the handoff at this job.
type step struct {
	job   *compactionJob // a compaction or move; nil for the flush
	start metrics.Event
	edit  *versionEdit
	done  metrics.Event
	err   error
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

// freezeMemLocked installs the pending handoff — waiting for its
// goroutine if it has not finished — then freezes the MemTable, swapping
// in a fresh one and a fresh WAL segment, and starts the handoff of its
// flush, the compactions of manual (nil for none) and the drain. It
// returns that handoff, or nil when there is nothing to do: without force
// the freeze is skipped while the MemTable is under half full (another
// caller rotated while this one waited); with force an empty MemTable
// starts a handoff only when manual is set or the tree is out of shape.
// Caller holds db.mu, which is released while waiting.
func (db *DB) freezeMemLocked(force bool, manual *keyRange) (*handoff, error) {
	// Also wait out in-flight commit leader passes: immSeq below is set to
	// lastSeq, which must be fully present in the MemTable being frozen or
	// the flush would advance the manifest floor over records that only
	// exist in the outgoing WAL segment.
	for {
		if err := db.installPendingLocked(); err != nil {
			return nil, err
		}
		if err := db.pipelineErrLocked(); err != nil {
			return nil, err
		}
		if db.commitsInFlight == 0 {
			break
		}
		db.cond.Wait()
	}
	freeze := !db.mem.empty() && (force || db.mem.approximateBytes() >= db.opts.MemTableBytes/2)
	if !freeze && (!force || manual == nil && db.compactionLevel(db.v) < 0) {
		return nil, nil
	}
	if freeze {
		db.walSeq++
		seg := walSegmentPath(db.dir, db.walSeq)
		db.logMu.Lock()
		err := db.log.Close()
		if err == nil {
			db.log, err = db.createWAL(seg)
		}
		if err != nil {
			// No writer is left to append to: poison the pipeline, so
			// every later commit returns err and Close skips the log.
			db.log = nil
			if db.bg.err == nil {
				db.bg.err = err
			}
		}
		db.logMu.Unlock()
		if err != nil {
			return nil, err
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
	}
	h := &handoff{db: db, imm: db.imm, immSeq: db.immSeq, immWALs: db.immWALs,
		manual: manual, v: db.v,
		compactPtr: slices.Clone(db.compactPtr), flushedSeq: db.flushedSeq,
		done: make(chan struct{})}
	db.bg.pending = h
	go h.run()
	return h, nil
}

// run is the handoff's goroutine: it runs the jobs, then writes the
// manifest of the staged version if a step staged an edit. Every table
// that manifest names was synced when its writer rolled it.
func (h *handoff) run() {
	defer close(h.done)
	h.runJobs()
	if slices.ContainsFunc(h.steps, func(s step) bool { return s.edit != nil }) {
		h.manifestErr = saveManifest(h.db.opts.FS, h.db.dir, h.v.toManifest(h.db.nextFileNum.Load(), h.flushedSeq))
	}
}

// runJobs runs the flush, the CompactRange jobs and the drain, and stops
// at the first failed job, which is staged with its step.
func (h *handoff) runJobs() {
	if h.imm != nil && h.flush() != nil {
		return
	}
	if h.manual != nil && h.compactRange(h.manual.lo, h.manual.hi) != nil {
		return
	}
	_ = h.drain()
}

// installPendingLocked installs pending handoffs, each once its goroutine
// has finished, until none is pending, and returns the first failure.
// Caller holds db.mu, which is released while waiting.
func (db *DB) installPendingLocked() error {
	for db.bg.pending != nil {
		if err := db.awaitLocked(db.bg.pending); err != nil {
			return err
		}
	}
	return nil
}

// awaitLocked waits until h is installed — by the caller, unless another
// caller got there first — and returns the outcome of its install; a nil
// h is nothing to wait for. Caller holds db.mu, which is released while
// h's goroutine runs.
func (db *DB) awaitLocked(h *handoff) error {
	if h == nil {
		return nil
	}
	for db.bg.pending == h {
		select {
		case <-h.done:
			return db.installLocked(h)
		default:
		}
		db.mu.Unlock()
		<-h.done
		db.mu.Lock()
	}
	return h.installErr
}

// installLocked applies h's staged steps in order, each through
// applyEditLocked and between the events its job emits, and records and
// returns h's failure: the job error that ended it, or an edit that did
// not apply, in which case the tables of the steps after it are dropped.
// A failed write of h's manifest fails its first edit, so nothing is
// installed and the version in memory stays the one on disk. A failed
// flush poisons the pipeline; a failed compaction does not, and the next
// handoff's drain retries it. Caller holds db.mu; h has finished and is
// pending.
func (db *DB) installLocked(h *handoff) error {
	db.bg.pending = nil
	db.compactPtr = h.compactPtr
	for i, s := range h.steps {
		if s.start.Type != "" {
			db.emit(s.start)
		}
		err := s.err
		if err == nil {
			if err = h.manifestErr; err != nil {
				db.dropTablesExcept(s.edit.added, s.edit.deleted)
			} else {
				err = db.applyEditLocked(s.edit)
			}
			if err != nil {
				db.dropStagedLocked(h.steps[i+1:], s.edit.added)
			}
		}
		if err != nil {
			if s.job != nil {
				db.emitCompactionError(s.job, err)
			} else if db.bg.err == nil {
				db.bg.err = err
			}
			h.installErr = err
			break
		}
		if s.job == nil { // the flush retires the frozen MemTable
			db.imm, db.immWALs = nil, nil
		}
		if s.done.Type != "" {
			db.emit(s.done)
		}
	}
	db.cond.Broadcast() // wake freezes waiting on a commit, and Close
	return h.installErr
}

// dropStagedLocked drops the tables that steps add and neither the
// installed version nor dropped (tables already dropped) holds, once
// each. Caller holds db.mu.
func (db *DB) dropStagedLocked(steps []step, dropped []*FileMeta) {
	live := map[*FileMeta]bool{}
	for _, level := range db.v.levels {
		for _, fm := range level {
			live[fm] = true
		}
	}
	for _, fm := range dropped {
		live[fm] = true
	}
	for _, s := range steps {
		if s.edit == nil {
			continue
		}
		for _, fm := range s.edit.added {
			if !live[fm] {
				live[fm] = true
				db.dropTable(fm)
			}
		}
	}
}

// stage applies e to the staged version, as applyEditLocked later applies
// it to the installed one; an edit the version refuses drops e's added
// tables, as applyEditLocked would.
func (h *handoff) stage(e *versionEdit) error {
	nv, err := h.v.apply(e)
	if err != nil {
		h.db.dropTablesExcept(e.added, e.deleted)
		return err
	}
	h.v, h.flushedSeq = nv, e.flushedSeq
	return nil
}

// flush is the pipeline's flush job: it merges the frozen MemTable into a
// level-0 table and stages one version edit that adds it, advances the
// flushed floor and retires the frozen MemTable's WAL files. A flush whose
// every key a Merger elided writes no table and adds none. On failure the
// frozen MemTable stays in place at install, and its WAL files preserve
// it for recovery.
func (h *handoff) flush() error {
	db := h.db
	var s step
	if db.opts.Events != nil {
		s.start = metrics.Event{Type: metrics.EventFlushStart, Level: 0,
			Entries: h.imm.list.Len(), Bytes: h.imm.approximateBytes()}
	}
	t0 := time.Now()
	added, err := db.mergeFlush(h.imm)
	if err == nil {
		e := &versionEdit{level: 0, added: added, flushedSeq: h.immSeq, retiredWALs: h.immWALs}
		if err = h.stage(e); err == nil {
			s.edit, s.done = e, db.doneEvent(metrics.EventFlushDone, 0, 0, e, t0)
		}
	}
	s.err = err
	h.steps = append(h.steps, s)
	return err
}
