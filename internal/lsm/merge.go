package lsm

// The one merge path (DESIGN.md §5.9). Every merge runs a mergeHeap of
// cursors over MemTable and table iterators. Scan reads each user key's
// newest version off the heap; a flush or a compaction groups each key's
// versions (mergeGroups), resolves them (resolveGroup) and writes the
// survivors through a compactionWriter. A compaction runs its merge on a
// merge goroutine that hands the resolved entries to the job's goroutine,
// which writes them into rolling output tables; the two overlap. A flush
// merges and writes on its caller. Neither splits its span, so every
// output table rolls at the same entry as in a single-threaded merge.

import (
	"bytes"
	"container/heap"
	"errors"
	"os"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
)

// compactionBatch is the number of resolved entries the merge goroutine
// hands to the writer per channel send.
const compactionBatch = 64

// errMergeCanceled is the merge goroutine's signal that the writer failed
// and closed quit; it never escapes mergeCompaction, which returns the
// writer's error.
var errMergeCanceled = errors.New("lsm: compaction merge canceled")

// compactionEntry is one resolved record on its way from the merge
// goroutine to the writer. Both slices are owned by the entry's batch.
type compactionEntry struct {
	ik    []byte
	value []byte
}

// cursor is one input of a merge, positioned on an entry: a MemTable's
// skip-list iterator or a table's iterator.
type cursor struct {
	mem *skiplist.Iterator
	tbl *sstable.Iterator
}

func (c cursor) key() []byte {
	if c.mem != nil {
		return c.mem.Key()
	}
	return c.tbl.Key()
}

func (c cursor) value() []byte {
	if c.mem != nil {
		return c.mem.Value()
	}
	return c.tbl.Value()
}

// next moves to the following entry and reports whether there is one.
func (c cursor) next() bool {
	if c.mem != nil {
		c.mem.Next()
		return c.mem.Valid()
	}
	return c.tbl.Next()
}

// err is a table cursor's read error; a MemTable cursor has none.
func (c cursor) err() error {
	if c.tbl != nil {
		return c.tbl.Err()
	}
	return nil
}

// mergeHeap orders a merge's cursors by their current internal key: its
// top is the next entry of the merged stream.
type mergeHeap []cursor

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return ikey.Compare(h[i].key(), h[j].key()) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(cursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// pushMem adds a MemTable iterator unless it is exhausted.
func (h *mergeHeap) pushMem(it *skiplist.Iterator) {
	if it.Valid() {
		heap.Push(h, cursor{mem: it})
	}
}

// pushTable adds a table iterator if positioned reports that it is on an
// entry, and otherwise returns the iterator's error.
func (h *mergeHeap) pushTable(it *sstable.Iterator, positioned bool) error {
	if !positioned {
		return it.Err()
	}
	heap.Push(h, cursor{tbl: it})
	return nil
}

// next advances the top cursor, dropping it once it is exhausted, and
// returns its read error.
func (h *mergeHeap) next() error {
	if (*h)[0].next() {
		heap.Fix(h, 0)
		return nil
	}
	return heap.Pop(h).(cursor).err()
}

// arena is a byte buffer that hands out copies. A copy is a view of the
// buffer that later copies never overwrite; truncating the arena to
// length 0 invalidates every copy.
type arena []byte

func (a *arena) copy(b []byte) []byte {
	n := len(*a)
	*a = append(*a, b...)
	return (*a)[n:len(*a):len(*a)]
}

// keyGroup holds every version of one user key that a merge met, newest
// first (internal-key order). mergeGroups reuses one group for every key
// and copies each version into its arena, so a group is valid only during
// the call it is passed to.
type keyGroup struct {
	key    []byte // user key, a view of ikeys[0]
	ikeys  [][]byte
	values [][]byte
	buf    arena
}

// mergeGroups drains h and invokes fn once per user key with that key's
// version group. An error from fn aborts the merge and is returned
// unwrapped.
func mergeGroups(h mergeHeap, fn func(g *keyGroup) error) error {
	var g keyGroup
	for len(h) > 0 {
		ik := h[0].key()
		if len(g.ikeys) > 0 && !bytes.Equal(g.key, ikey.UserKey(ik)) {
			if err := fn(&g); err != nil {
				return err
			}
			g.ikeys, g.values, g.buf = g.ikeys[:0], g.values[:0], g.buf[:0]
		}
		g.ikeys = append(g.ikeys, g.buf.copy(ik))
		g.values = append(g.values, g.buf.copy(h[0].value()))
		g.key = ikey.UserKey(g.ikeys[0])
		if err := h.next(); err != nil {
			return err
		}
	}
	if len(g.ikeys) == 0 {
		return nil
	}
	return fn(&g)
}

// resolveGroup applies the flush and compaction value-resolution policy
// to one user-key group and emits the surviving records in output order:
// the Merger hook (Lazy posting-list coalescing) when configured,
// otherwise newest-wins with LevelDB tombstone rules. bottom reports that
// no level deeper than the output's can hold the key (never at flush).
func resolveGroup(merger Merger, bottom bool, g *keyGroup, emit func(ik, value []byte) error) error {
	// The versions newer than the newest tombstone are live.
	live := len(g.ikeys)
	for i, ik := range g.ikeys {
		if ikey.KindOf(ik) == ikey.KindDelete {
			live = i
			break
		}
	}
	tombstone := live < len(g.ikeys)
	if merger != nil && live > 0 {
		merged, keep := merger.Merge(g.key, g.values[:live], bottom && !tombstone)
		if keep {
			if err := emit(g.ikeys[0], merged); err != nil {
				return err
			}
		}
		// A tombstone under the merged fragments must survive (unless
		// this is the base level) — it still shadows older fragments in
		// deeper levels.
		if tombstone && !bottom {
			return emit(g.ikeys[live], nil)
		}
		return nil
	}

	// Newest version wins.
	if live == 0 {
		if bottom {
			return nil // tombstone has nothing left to shadow
		}
		return emit(g.ikeys[0], nil)
	}
	return emit(g.ikeys[0], g.values[0])
}

// forkMerger returns the Merger one flush or compaction job merges
// through: a fork of the configured one when it supports forking.
func (db *DB) forkMerger() Merger {
	if forker, ok := db.opts.Merge.(MergerForker); ok {
		return forker.ForkMerger()
	}
	return db.opts.Merge
}

// compactionWriter writes resolved entries, in key order, into output
// tables that it opens on its first entry. A compaction's writer rolls
// target-size tables; a flush's writes one level-0 table with flush I/O
// accounting. Only the job's goroutine uses it.
type compactionWriter struct {
	db      *DB
	tr      *metrics.Trace
	flush   bool
	outputs []*FileMeta
	file    *os.File
	builder *sstable.Builder
	num     uint64
	attrs   []sstable.AttrValue // add's extraction scratch
	writeNS int64               // accumulated wall time inside add/flush (compact_write)
}

func (db *DB) newCompactionWriter(tr *metrics.Trace, flush bool) *compactionWriter {
	return &compactionWriter{db: db, tr: tr, flush: flush}
}

// add appends one resolved entry, opening an output table on demand and,
// in a compaction, rolling it once it reaches the target size.
func (w *compactionWriter) add(ik, value []byte) error {
	t0 := w.tr.Now()
	defer w.since(t0)
	if w.builder == nil {
		w.num = w.db.allocFileNum()
		f, err := os.Create(tablePath(w.db.dir, w.num))
		if err != nil {
			return err
		}
		w.file = f
		w.builder = sstable.NewBuilder(f, w.db.opts.tableOptions(!w.flush))
	}
	w.attrs = w.attrs[:0]
	if w.db.opts.Extract != nil && ikey.KindOf(ik) == ikey.KindSet {
		w.attrs = w.db.opts.Extract(w.attrs, ikey.UserKey(ik), value)
	}
	if err := w.builder.Add(ik, value, w.attrs); err != nil {
		return err
	}
	if !w.flush && w.builder.EstimatedSize() >= maxTableBytes {
		return w.roll()
	}
	return nil
}

// addAll writes every batch the merge goroutine sends until it closes
// out, and stops at the first failure.
func (w *compactionWriter) addAll(out <-chan []compactionEntry) error {
	for batch := range out {
		for _, e := range batch {
			if err := w.add(e.ik, e.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// roll finishes the open output table, fsyncs it and opens its FileMeta.
func (w *compactionWriter) roll() error {
	if w.builder == nil {
		return nil
	}
	size, err := w.builder.Finish()
	if err != nil {
		return err
	}
	if err := w.file.Sync(); err != nil {
		return err
	}
	if err := w.file.Close(); err != nil {
		return err
	}
	fm, err := w.db.openTable(fileRecord{Num: w.num, Size: size})
	if err != nil {
		return err
	}
	w.outputs = append(w.outputs, fm)
	w.file, w.builder = nil, nil
	if w.db.testCompactRoll != nil {
		return w.db.testCompactRoll()
	}
	return nil
}

// finish ends the job's writes: unless the job failed with err, it rolls
// the trailing output table and returns every table produced. On any
// failure it drops the open output and every table produced so far,
// which nothing references yet (a crash leaves the same residue, cleaned
// by removeOrphanTables at next Open), and returns the error.
func (w *compactionWriter) finish(err error) ([]*FileMeta, error) {
	if err == nil {
		t0 := w.tr.Now()
		err = w.roll()
		w.since(t0)
	}
	if err == nil {
		return w.outputs, nil
	}
	if w.file != nil {
		w.db.dropTable(&FileMeta{Num: w.num, f: w.file})
	}
	w.db.dropTable(w.outputs...)
	return nil, err
}

func (w *compactionWriter) since(t0 time.Time) {
	if !t0.IsZero() {
		w.writeNS += int64(time.Since(t0))
	}
}

// mergeFlush writes the frozen MemTable mem into one level-0 table and
// returns it, or no table when a Merger elided every key. It takes no
// locks and touches no mutable DB state, so the flush job runs it off-lock.
//
// The engine has no snapshots, so one resolved record per user key
// survives the flush. Without a Merger that is the newest version, which
// also guarantees one entry per user key per table (the Embedded lookup's
// validity check relies on it). With one, the key's versions are resolved
// as a compaction into a non-base level resolves them (bottom false): the
// Lazy index's blind fragments coalesce here, once per flush.
func (db *DB) mergeFlush(mem *memTable) ([]*FileMeta, error) {
	var h mergeHeap
	it := mem.iter()
	it.SeekToFirst()
	h.pushMem(it)
	merger := db.forkMerger()
	w := db.newCompactionWriter(nil, true)
	return w.finish(mergeGroups(h, func(g *keyGroup) error {
		return resolveGroup(merger, false, g, w.add)
	}))
}

// mergeStream is the merge goroutine of a compaction: it merges the
// tables in all, resolves each user key's versions for the target level
// and sends the surviving entries to out in key order, compactionBatch per
// send. It returns errMergeCanceled as soon as quit closes.
func mergeStream(all []*FileMeta, target int, base *version, merger Merger,
	out chan<- []compactionEntry, quit <-chan struct{}) error {
	var h mergeHeap
	for _, fm := range all {
		it := fm.tbl.NewIterator(true)
		if err := h.pushTable(it, it.Next()); err != nil {
			return err
		}
	}
	batch := make([]compactionEntry, 0, compactionBatch)
	var buf arena // the batch's keys and values
	send := func() error {
		select {
		case out <- batch:
			batch = make([]compactionEntry, 0, compactionBatch)
			buf = make(arena, 0, len(buf))
			return nil
		case <-quit:
			return errMergeCanceled
		}
	}
	err := mergeGroups(h, func(g *keyGroup) error {
		bottom := base.isBaseLevelForKey(target, g.key)
		return resolveGroup(merger, bottom, g, func(ik, value []byte) error {
			// The next key reuses the group's arena and a Merger's
			// scratch, so the entry crosses the channel with copies.
			batch = append(batch, compactionEntry{ik: buf.copy(ik), value: buf.copy(value)})
			if len(batch) < compactionBatch {
				return nil
			}
			return send()
		})
	})
	if err == nil && len(batch) > 0 {
		err = send()
	}
	return err
}

// mergeCompaction merges job.inputs into new tables for job.level+1 and
// returns them. It reads only the job and immutable DB state, so the
// compaction job runs it without holding db.mu: input tables are
// immutable files, and job.base stays valid (see compactionJob). A merge
// goroutine with the job's own Merger fork produces the resolved stream,
// and this goroutine writes it. If the writer fails it closes quit, drains
// the stream and returns its own error; if the merge fails, its error is
// returned as it is.
func (db *DB) mergeCompaction(job *compactionJob, tr *metrics.Trace) ([]*FileMeta, error) {
	merger := db.forkMerger()
	t0 := time.Now()
	// A few batches of slack let the merge run ahead while the writer
	// finishes and fsyncs a table.
	out := make(chan []compactionEntry, 4)
	quit := make(chan struct{})
	var merr error // written before out closes
	go func() {
		defer close(out)
		merr = mergeStream(job.inputs, job.level+1, job.base, merger, out, quit)
	}()

	w := db.newCompactionWriter(tr, false)
	err := w.addAll(out)
	if err != nil {
		close(quit)
		for range out { // let the merge goroutine see quit and exit
		}
	} else {
		err = merr // out is closed: the merge goroutine has returned
	}
	outputs, err := w.finish(err)
	if err != nil {
		return nil, err
	}
	tr.Add(metrics.PhaseCompactWrite, time.Duration(w.writeNS))
	tr.Add(metrics.PhaseCompactMerge, time.Since(t0)-time.Duration(w.writeNS))
	return outputs, nil
}
