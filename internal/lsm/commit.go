// Leader-based group commit (DESIGN.md §5.5), the engine's only write
// path. Every Put/Delete/ApplyAt becomes a pending commit on a queue: the
// first writer to arrive leads, drains the queue up to a byte/count
// budget, assigns one contiguous sequence range under db.mu, writes every
// member's records as a single WAL batch frame off db.mu (one buffer
// flush, and one fsync per group under SyncGrouped), re-acquires db.mu
// for the MemTable inserts, and wakes the followers. WAL I/O and fsync
// latency thereby leave the critical section guarded by db.mu, and
// concurrent committers share the per-group fsync. A lone writer is a
// group of one and pays what a serial commit would: its pendingCommit
// comes from a pool, holds its record inline, and gets wakeup channels
// only if it has to queue behind another leader.
package lsm

import (
	"runtime"
	"sync"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
)

// Group bounds: a leader stops draining queued commits into its group
// when one more would exceed maxGroupBytes of WAL payload or
// maxGroupWaiters members. The leader's own commit always fits.
const (
	maxGroupBytes   = 1 << 20
	maxGroupWaiters = 128
)

// pendingCommit is one writer's enqueued commit. The enqueuing goroutine
// blocks until done or lead closes; the leader that drains it owns every
// field in between.
type pendingCommit struct {
	records []wal.Record  // a Batch's records, or one[:] for a Put/Delete
	one     [1]wal.Record // backs records for a single-record commit
	bytes   int64
	tr      *metrics.Trace

	err error // set by the leader before done closes

	// done wakes the waiter after its group committed (close-once). done
	// and lead are made only when the commit queues behind an active
	// leader; a commit that leads its own group has neither.
	done chan struct{}
	// lead promotes the waiter to leader of the next group (close-once).
	lead chan struct{}
}

// pendingPool recycles pendingCommits: the committing goroutine returns
// its own after reading the result, when no leader references it.
var pendingPool = sync.Pool{New: func() any { return new(pendingCommit) }}

// commitQueue is the group-commit waiter queue. It has no lock of its
// own: db.mu guards it, so a writer enqueues, and a leader drains and
// hands off, inside critical sections the leader pass takes anyway. At
// most one leader exists at a time; its commit is never in pending (it
// seeds its own group).
type commitQueue struct {
	pending []*pendingCommit // guarded by db.mu
	leading bool             // guarded by db.mu
	// group backs the current leader's group, reused by every pass;
	// between passes its length says how many writers the last one
	// released.
	group []*pendingCommit // guarded by db.mu
	// maxWaiters is maxGroupWaiters, set at Open; tests lower it to
	// force handoffs with commits still queued.
	maxWaiters int
}

// enqueueLocked registers pc and reports whether the caller must lead:
// true when no leader is active (pc seeds the new group and is not
// queued), false when pc joined pending and the caller should wait. A
// new leader is also told to yield before draining when the previous
// group had other members: their writers were released with it and are
// about to commit again. A lone writer's previous group is itself, so
// it never yields.
func (q *commitQueue) enqueueLocked(pc *pendingCommit) (lead, yield bool) {
	if !q.leading {
		q.leading = true
		return true, len(q.group) > 1
	}
	pc.done = make(chan struct{})
	pc.lead = make(chan struct{})
	q.pending = append(q.pending, pc)
	return false, false
}

// drainLocked builds the leader's group: seed plus queued commits, in
// arrival order, until adding one would exceed the group bounds. The
// seed always fits regardless of budget. The returned slice is valid
// until the leader hands off.
func (q *commitQueue) drainLocked(seed *pendingCommit) []*pendingCommit {
	group := append(q.group[:0], seed)
	bytes := seed.bytes
	for len(q.pending) > 0 && len(group) < q.maxWaiters {
		pc := q.pending[0]
		if bytes+pc.bytes > maxGroupBytes {
			break
		}
		group = append(group, pc)
		bytes += pc.bytes
		q.pending = q.pending[1:]
	}
	if len(q.pending) == 0 {
		q.pending = nil // release the drained backing array
	}
	q.group = group
	return group
}

// handoffLocked retires the current leader: it pops and returns the next
// leader's commit, or nil (clearing the leading flag) when the queue is
// empty.
func (q *commitQueue) handoffLocked() *pendingCommit {
	if len(q.pending) == 0 {
		q.leading = false
		return nil
	}
	next := q.pending[0]
	q.pending = q.pending[1:]
	return next
}

// GroupSizeHist returns the histogram of commits per WAL write pass.
func (db *DB) GroupSizeHist() *metrics.BucketHistogram { return db.groupSize }

// commit routes pc — a pooled pendingCommit whose records (not yet
// sequenced, unless the first carries the seq to commit at) and tr the
// caller filled in — through the queue, blocks until it is durable per
// SyncMode, and returns pc to the pool. The WAL and the MemTable copy
// the record buffers, so the caller may reuse them once commit returns.
func (db *DB) commit(pc *pendingCommit) error {
	for i := range pc.records {
		pc.bytes += int64(len(pc.records[i].Key) + len(pc.records[i].Value))
	}
	db.mu.Lock()
	if lead, yield := db.commitQ.enqueueLocked(pc); lead {
		db.leadGroupLocked(pc, yield)
	} else {
		db.mu.Unlock()
		pc.tr.Enter(metrics.PhaseCommitWait)
		select {
		case <-pc.done:
		case <-pc.lead:
			db.mu.Lock()
			db.leadGroupLocked(pc, true)
		}
	}
	err := pc.err
	*pc = pendingCommit{}
	pendingPool.Put(pc)
	return err
}

// leadGroupLocked runs one leader pass seeded by seed, publishes the
// result to every member, and hands leadership to the next waiter (if
// any). yield is set for a promoted leader and for one whose previous
// group had other members. Caller holds db.mu; it is released on return.
func (db *DB) leadGroupLocked(seed *pendingCommit, yield bool) {
	if yield {
		// Yield once before draining: the previous pass released its group
		// just before this leader took over, so the released writers are
		// runnable but typically have not re-enqueued yet. One scheduler
		// pass lets them join this group instead of the next, roughly
		// doubling the steady-state group size for sub-millisecond fsyncs
		// (for longer fsyncs arrivals during the sync dominate and the
		// yield is noise).
		db.mu.Unlock()
		runtime.Gosched()
		db.mu.Lock()
	}
	group := db.commitQ.drainLocked(seed)
	err := db.commitGroupLocked(group)
	// Wake the members before handing off: the next leader reuses the
	// group's backing array.
	for _, pc := range group {
		if pc.err == nil {
			pc.err = err
		}
		if pc.done != nil {
			close(pc.done) // pc may be recycled from here on
		}
	}
	next := db.commitQ.handoffLocked()
	db.mu.Unlock()
	if next != nil {
		close(next.lead)
	}
}

// commitGroupLocked performs the leader pass over group: sequence
// assignment under db.mu, WAL batch append + sync under logMu only,
// MemTable inserts and counter updates back under db.mu. The returned
// error is shared by every member. Caller holds db.mu, which is released
// across the WAL write and held again on return.
func (db *DB) commitGroupLocked(group []*pendingCommit) error {
	tr := group[0].tr // the leader's own trace; followers only see commit_wait
	if err := db.pipelineErrLocked(); err != nil {
		return err
	}
	// One contiguous sequence range for the whole group, unless a member
	// presets its seq.
	total := 0
	for _, pc := range group {
		total += len(pc.records)
	}
	for _, pc := range group {
		// A member whose first record carries a seq (PutAt, ApplyAt)
		// starts there, or fails alone if that seq is not above lastSeq.
		if seq := pc.records[0].Seq; seq != 0 {
			if seq <= db.lastSeq {
				total -= len(pc.records)
				pc.err, pc.records = ErrSeqNotAbove, nil
				continue
			}
			db.lastSeq = seq - 1
		}
		for i := range pc.records {
			db.lastSeq++
			pc.records[i].Seq = db.lastSeq
		}
	}
	// Gate freezes until the inserts land: immSeq may not advance over
	// sequences that are not yet in a MemTable.
	db.commitsInFlight++
	db.mu.Unlock()

	tr.Enter(metrics.PhaseWAL)
	db.logMu.Lock()
	records := group[0].records
	if len(group) > 1 {
		records = make([]wal.Record, 0, total)
		for _, pc := range group {
			records = append(records, pc.records...)
		}
	}
	// A batch frame carries consecutive seqs, so a member that skipped
	// seqs starts a new frame.
	var werr error
	for len(records) > 0 && werr == nil {
		n := 1
		for n < len(records) && records[n].Seq == records[n-1].Seq+1 {
			n++
		}
		werr = db.log.AppendBatch(records[:n])
		records = records[n:]
	}
	if werr == nil {
		werr = db.syncWALLocked(tr)
	}
	db.logMu.Unlock()

	db.mu.Lock()
	var ingested int64 // key+value bytes, counted once per group
	if werr == nil {
		tr.Enter(metrics.PhaseMemInsert)
		for _, pc := range group {
			for _, r := range pc.records {
				db.mem.add(r.Seq, ikey.Kind(r.Kind), r.Key, r.Value, db.opts.Extract)
				ingested += int64(len(r.Key) + len(r.Value))
			}
		}
	}
	db.commitsInFlight--
	db.cond.Broadcast() // wake a freeze waiting on commitsInFlight
	if werr != nil {
		return werr
	}
	var rerr error
	if db.mem.approximateBytes() >= db.opts.MemTableBytes && !db.closed {
		tr.Enter(metrics.PhaseRotate)
		_, rerr = db.freezeMemLocked(false, nil)
	}
	st := db.opts.Stats
	st.CommitGroups.Add(1)
	st.Commits.Add(int64(len(group)))
	st.CommitRecords.Add(int64(total))
	st.IngestBytes.Add(ingested)
	db.groupSize.Observe(float64(len(group)))
	return rerr
}

// syncWALLocked makes the group's WAL frames durable per SyncMode: a
// buffer flush under SyncOff (acknowledged writes are always visible in
// the file), one fsync per group under SyncGrouped. Caller holds logMu.
func (db *DB) syncWALLocked(tr *metrics.Trace) error {
	if db.opts.SyncMode != wal.SyncGrouped {
		return db.log.Flush()
	}
	t0 := tr.Now()
	err := db.log.Sync()
	tr.Since(metrics.PhaseWALSync, t0)
	if err != nil {
		return err
	}
	db.opts.Stats.WALFsyncs.Add(1)
	return nil
}

// waitCommitsLocked blocks until no leader pass sits between sequence
// assignment and MemTable insertion, so lastSeq is fully represented in
// the MemTables. Caller holds db.mu.
func (db *DB) waitCommitsLocked() {
	for db.commitsInFlight > 0 {
		db.cond.Wait()
	}
}
