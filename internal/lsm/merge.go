package lsm

// The compaction merge (DESIGN.md §5.9): one stream per job. A merge
// goroutine runs the k-way merge and value resolution over the job's
// whole input span and hands the surviving entries, in key order, to the
// job's goroutine, which writes them into rolling output tables. The two
// overlap; neither splits the span, so every output table rolls at the
// same entry as in a single-threaded merge.

import (
	"bytes"
	"container/heap"
	"errors"
	"os"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
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
// goroutine to the writer. Both slices are owned by the entry.
type compactionEntry struct {
	ik    []byte
	value []byte
}

// mergeHeap orders the input iterators of a compaction by their current
// internal key.
type mergeHeap []*sstable.Iterator

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return ikey.Compare(h[i].Key(), h[j].Key()) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*sstable.Iterator)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// keyGroup collects every version of one user key observed by the k-way
// merge, newest first (internal-key order). A fresh group is allocated
// per key so downstream stages may retain it.
type keyGroup struct {
	key    []byte // user key
	ikeys  [][]byte
	values [][]byte
	kinds  []ikey.Kind
}

// mergeGroups runs the k-way merge of the tables and invokes fn once per
// user key with that key's version group. An error from fn aborts the
// merge and is returned unwrapped.
func mergeGroups(all []*FileMeta, fn func(g *keyGroup) error) error {
	var h mergeHeap
	for _, fm := range all {
		it := fm.tbl.NewIterator(true)
		if !it.Next() {
			if err := it.Err(); err != nil {
				return err
			}
			continue
		}
		heap.Push(&h, it)
	}

	var g *keyGroup
	flush := func() error {
		if g == nil {
			return nil
		}
		err := fn(g)
		g = nil
		return err
	}
	for h.Len() > 0 {
		it := h[0]
		ik, val := it.Key(), it.Value()
		uk := ikey.UserKey(ik)
		if g == nil || !bytes.Equal(g.key, uk) {
			if err := flush(); err != nil {
				return err
			}
			g = &keyGroup{key: append([]byte(nil), uk...)}
		}
		// Copy: iterator Key/Value alias block buffers reused on Next.
		g.ikeys = append(g.ikeys, append([]byte(nil), ik...))
		g.values = append(g.values, append([]byte(nil), val...))
		g.kinds = append(g.kinds, ikey.KindOf(ik))

		if it.Next() {
			heap.Fix(&h, 0)
		} else {
			if err := it.Err(); err != nil {
				return err
			}
			heap.Pop(&h)
		}
	}
	return flush()
}

// resolveGroup applies the flush and compaction value-resolution policy
// to one user-key group and emits the surviving records in output order:
// the Merger hook (Lazy posting-list coalescing) when configured,
// otherwise newest-wins with LevelDB tombstone rules. bottom reports that
// no level deeper than the output's can hold the key (never at flush).
func resolveGroup(merger Merger, bottom bool, g *keyGroup, emit func(ik, value []byte) error) error {
	if merger != nil {
		// Collect live values down to (not past) the newest tombstone.
		var live [][]byte
		tombstoneAt := -1
		for i, k := range g.kinds {
			if k == ikey.KindDelete {
				tombstoneAt = i
				break
			}
			live = append(live, g.values[i])
		}
		if len(live) == 0 {
			// Newest record is a tombstone.
			if tombstoneAt >= 0 && !bottom {
				return emit(g.ikeys[0], nil)
			}
			return nil
		}
		merged, keep := merger.Merge(g.key, live, bottom && tombstoneAt < 0)
		if keep {
			if err := emit(g.ikeys[0], merged); err != nil {
				return err
			}
		}
		// A tombstone under the merged fragments must survive (unless
		// this is the base level) — it still shadows older fragments in
		// deeper levels.
		if tombstoneAt >= 0 && !bottom {
			return emit(g.ikeys[tombstoneAt], nil)
		}
		return nil
	}

	// Default: newest version wins.
	if g.kinds[0] == ikey.KindDelete {
		if bottom {
			return nil // tombstone has nothing left to shadow
		}
		return emit(g.ikeys[0], nil)
	}
	return emit(g.ikeys[0], g.values[0])
}

// compactionWriter rolls resolved entries into target-size output tables.
// Only the job's goroutine uses it, in key order.
type compactionWriter struct {
	db      *DB
	tr      *metrics.Trace
	outputs []*FileMeta
	file    *os.File
	builder *sstable.Builder
	num     uint64
	attrs   []sstable.AttrValue // add's extraction scratch
	writeNS int64               // accumulated wall time inside add/flush (compact_write)
}

func (db *DB) newCompactionWriter(tr *metrics.Trace) *compactionWriter {
	return &compactionWriter{db: db, tr: tr}
}

// add appends one resolved entry, opening an output table on demand and
// rolling it once it reaches the target size.
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
		w.builder = sstable.NewBuilder(f, w.db.opts.tableOptions(true))
	}
	w.attrs = w.attrs[:0]
	if w.db.opts.Extract != nil && ikey.KindOf(ik) == ikey.KindSet {
		w.attrs = w.db.opts.Extract(w.attrs, ikey.UserKey(ik), value)
	}
	if err := w.builder.Add(ik, value, w.attrs); err != nil {
		return err
	}
	if w.builder.EstimatedSize() >= maxTableBytes {
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

// finish flushes the trailing output table and returns every table
// produced.
func (w *compactionWriter) finish() ([]*FileMeta, error) {
	t0 := w.tr.Now()
	defer w.since(t0)
	if err := w.roll(); err != nil {
		return nil, err
	}
	return w.outputs, nil
}

// abort drops the open output and every table produced so far — the
// failure path, where nothing references the outputs yet. (A crash
// leaves the same residue, cleaned by removeOrphanTables at next Open.)
func (w *compactionWriter) abort() {
	if w.file != nil {
		w.db.dropTable(&FileMeta{Num: w.num, f: w.file})
		w.file, w.builder = nil, nil
	}
	w.db.dropTable(w.outputs...)
	w.outputs = nil
}

func (w *compactionWriter) since(t0 time.Time) {
	if !t0.IsZero() {
		w.writeNS += int64(time.Since(t0))
	}
}

// mergeStream is the merge goroutine of a job: it merges the tables in
// all, resolves each user key's versions for the target level and sends
// the surviving entries to out in key order, compactionBatch per send. It
// returns errMergeCanceled as soon as quit closes.
func mergeStream(all []*FileMeta, target int, base *version, merger Merger,
	out chan<- []compactionEntry, quit <-chan struct{}) error {
	batch := make([]compactionEntry, 0, compactionBatch)
	send := func() error {
		select {
		case out <- batch:
			batch = make([]compactionEntry, 0, compactionBatch)
			return nil
		case <-quit:
			return errMergeCanceled
		}
	}
	err := mergeGroups(all, func(g *keyGroup) error {
		bottom := base.isBaseLevelForKey(target, g.key)
		return resolveGroup(merger, bottom, g, func(ik, value []byte) error {
			// ik is owned by the group; value may alias Merger-internal
			// scratch reused by the next Merge call, so copy it before
			// the entry crosses the channel.
			if value != nil {
				value = append([]byte(nil), value...)
			}
			batch = append(batch, compactionEntry{ik: ik, value: value})
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
// immutable files, and job.base stays valid (see compactionJob). A merge goroutine with the job's own
// Merger fork produces the resolved stream, and this goroutine writes it.
// If the writer fails it closes quit, drains the stream and returns its
// own error; if the merge fails, its error is returned as it is.
func (db *DB) mergeCompaction(job *compactionJob, tr *metrics.Trace) ([]*FileMeta, error) {
	merger := db.opts.Merge
	if forker, ok := merger.(MergerForker); ok {
		merger = forker.ForkMerger()
	}

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

	w := db.newCompactionWriter(tr)
	err := w.addAll(out)
	if err != nil {
		close(quit)
		for range out { // let the merge goroutine see quit and exit
		}
	} else {
		err = merr // out is closed: the merge goroutine has returned
	}
	var outputs []*FileMeta
	if err == nil {
		outputs, err = w.finish()
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	tr.Add(metrics.PhaseCompactWrite, time.Duration(w.writeNS))
	tr.Add(metrics.PhaseCompactMerge, time.Since(t0)-time.Duration(w.writeNS))
	return outputs, nil
}
