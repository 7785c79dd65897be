package lsm

// Key-range sub-compactions with a pipelined merge engine (DESIGN.md
// §5.9). A compaction's input span is partitioned into disjoint user-key
// ranges along existing data-index block boundaries; each partition runs a
// two-stage pipeline (read/decode + k-way merge feeding value resolution)
// on its own goroutines, and a single ordered writer drains the partitions
// in key order into rolling output tables. Because one goroutine still
// writes every entry in global key order, output tables, manifests and
// write counters are byte-identical at every Options.CompactionParallelism
// setting; only CompactionReads can differ (adjacent partitions re-read
// the boundary block they share).

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
)

// subcompactionBatch is the number of resolved entries a partition worker
// hands to the ordered writer per channel send.
const subcompactionBatch = 64

// errSubcompactionCanceled is the internal signal a partition stage
// returns when the run's quit channel closed under it; it never escapes
// the engine (the first real failure recorded in compactionRun does).
var errSubcompactionCanceled = errors.New("lsm: sub-compaction canceled")

// keyRange is a half-open user-key range [lo, hi); a nil bound is
// unbounded on that side.
type keyRange struct{ lo, hi []byte }

func (r keyRange) String() string {
	lo, hi := "-inf", "+inf"
	if r.lo != nil {
		lo = fmt.Sprintf("%q", r.lo)
	}
	if r.hi != nil {
		hi = fmt.Sprintf("%q", r.hi)
	}
	return fmt.Sprintf("[%s,%s)", lo, hi)
}

// subcompactionError attributes a merge failure to the partition it
// happened in, so the event log can name the key range.
type subcompactionError struct {
	r   keyRange
	err error
}

func (e *subcompactionError) Error() string {
	return fmt.Sprintf("lsm: sub-compaction %s: %v", e.r, e.err)
}

func (e *subcompactionError) Unwrap() error { return e.err }

// compactionRun is the shared cancel/error state of one compaction's
// partition workers: the first failure closes quit (exactly here, nowhere
// else), every blocking stage selects on it, and the recorded error plus
// its partition range surface to the caller.
type compactionRun struct {
	quit chan struct{} // closed by fail on the first failure

	mu       sync.Mutex
	err      error    // guarded by mu; first failure
	errRange keyRange // guarded by mu; partition of the first failure
}

func newCompactionRun() *compactionRun {
	return &compactionRun{quit: make(chan struct{})}
}

// fail records the first failure and cancels the run. Later calls are
// no-ops, so quit has a single close site.
func (r *compactionRun) fail(kr keyRange, err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
		r.errRange = kr
		close(r.quit)
	}
	r.mu.Unlock()
}

// firstErr returns the recorded failure wrapped with its partition range,
// or nil.
func (r *compactionRun) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		return nil
	}
	return &subcompactionError{r: r.errRange, err: r.err}
}

// compactionEntry is one resolved record on its way from a partition
// worker to the ordered writer. Both slices are owned by the entry.
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

// mergeGroups runs the k-way merge of the tables over the user-key range
// kr and invokes fn once per user key with that key's version group. An
// error from fn aborts the merge and is returned unwrapped.
func mergeGroups(all []*FileMeta, kr keyRange, fn func(g *keyGroup) error) error {
	var h mergeHeap
	for _, fm := range all {
		it := fm.tbl.NewIterator(true)
		var ok bool
		if kr.lo == nil {
			ok = it.Next()
		} else {
			ok = it.SeekGE(ikey.SeekKey(kr.lo))
		}
		if !ok {
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
		if kr.hi != nil && bytes.Compare(uk, kr.hi) >= 0 {
			// The heap top is the global minimum, so every remaining
			// entry of every source is past the partition.
			break
		}
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

// resolveGroup applies the compaction value-resolution policy to one
// user-key group and emits the surviving records in output order: the
// Merger hook (Lazy posting-list coalescing) when configured, otherwise
// newest-wins with LevelDB tombstone rules. bottom reports that no level
// deeper than the compaction's target can hold the key.
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
// Exactly one goroutine uses a writer: the caller draining partitions in
// key order, which is what keeps output file boundaries independent of
// parallelism.
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
		w.db.testCompactRoll()
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

// abort closes the open output and removes every file produced so far —
// the failure path, where nothing references the outputs yet. (A crash
// leaves the same residue, cleaned by removeOrphanTables at next Open.)
func (w *compactionWriter) abort() {
	if w.file != nil {
		_ = w.file.Close()
		_ = os.Remove(tablePath(w.db.dir, w.num))
		w.file, w.builder = nil, nil
	}
	for _, fm := range w.outputs {
		_ = fm.f.Close()
		_ = os.Remove(tablePath(w.db.dir, fm.Num))
	}
	w.outputs = nil
}

func (w *compactionWriter) since(t0 time.Time) {
	if !t0.IsZero() {
		w.writeNS += int64(time.Since(t0))
	}
}

// partitionBoundaries derives up to n-1 interior user-key split points
// from the data-index block boundaries of the input tables — metadata
// already in memory, so partitioning costs no I/O. It returns nil (one
// partition) when n ≤ 1 or the inputs have too few distinct block
// boundaries to give every partition at least a couple of blocks.
func partitionBoundaries(all []*FileMeta, n int) [][]byte {
	if n <= 1 {
		return nil
	}
	var cands [][]byte
	for _, fm := range all {
		for i := 0; i < fm.tbl.NumBlocks(); i++ {
			first, _ := fm.tbl.BlockRange(i)
			cands = append(cands, append([]byte(nil), ikey.UserKey(first)...))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i], cands[j]) < 0 })
	dedup := cands[:0]
	for _, c := range cands {
		if len(dedup) == 0 || !bytes.Equal(dedup[len(dedup)-1], c) {
			dedup = append(dedup, c)
		}
	}
	// The first candidate is the span's smallest key; only the interior
	// ones can split it.
	if len(dedup) > 0 {
		dedup = dedup[1:]
	}
	if len(dedup) < 2*n-1 {
		return nil
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		bounds = append(bounds, dedup[i*len(dedup)/n])
	}
	return bounds
}

// subcompact merges and resolves one partition on the worker pool: a
// reader goroutine drives the k-way merge and groups versions per user
// key, while this goroutine resolves the groups (with the worker's
// private Merger fork) and streams owned entry batches to out. It closes
// out when the partition is exhausted or the run is canceled.
func (db *DB) subcompact(run *compactionRun, all []*FileMeta, kr keyRange,
	target int, base *version, merger Merger, out chan<- []compactionEntry) {
	defer close(out)
	db.workersBusy.Add(1)
	defer db.workersBusy.Add(-1)

	groups := make(chan *keyGroup, subcompactionBatch)
	go db.subcompactReader(run, all, kr, groups)

	batch := make([]compactionEntry, 0, subcompactionBatch)
	send := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case out <- batch:
			batch = make([]compactionEntry, 0, subcompactionBatch)
			return true
		case <-run.quit:
			return false
		}
	}
	for g := range groups {
		bottom := base.isBaseLevelForKey(target, g.key)
		err := resolveGroup(merger, bottom, g, func(ik, value []byte) error {
			// ik is owned by the group; value may alias Merger-internal
			// scratch reused by the next Merge call, so copy it before
			// the entry crosses the channel.
			if value != nil {
				value = append([]byte(nil), value...)
			}
			batch = append(batch, compactionEntry{ik: ik, value: value})
			if len(batch) >= subcompactionBatch && !send() {
				return errSubcompactionCanceled
			}
			return nil
		})
		if err != nil {
			if err != errSubcompactionCanceled {
				run.fail(kr, err)
			}
			return
		}
	}
	send()
}

// subcompactReader is the read/decode stage of one partition: it runs the
// k-way merge over the partition's range and hands each user-key group to
// the resolve stage, stopping as soon as the run is canceled.
func (db *DB) subcompactReader(run *compactionRun, all []*FileMeta, kr keyRange, groups chan<- *keyGroup) {
	defer close(groups)
	err := mergeGroups(all, kr, func(g *keyGroup) error {
		select {
		case groups <- g:
			return nil
		case <-run.quit:
			return errSubcompactionCanceled
		}
	})
	if err != nil && err != errSubcompactionCanceled {
		run.fail(kr, err)
	}
}

// mergeCompaction merges job.inputs (from job.level) and job.next (from
// job.level+1) into new tables for job.level+1 and returns them. It reads
// only the job and immutable DB state, so the compaction job runs it
// without holding db.mu: input tables are immutable files, and job.base
// stays valid (see compactionJob). The span is partitioned into up to
// Options.CompactionParallelism disjoint key ranges (one at the default
// setting), each merged on its own workers, and the resolved stream is
// written in key order on the calling goroutine, so the outputs are
// byte-identical at every setting.
func (db *DB) mergeCompaction(job *compactionJob, tr *metrics.Trace) ([]*FileMeta, error) {
	target := job.level + 1
	all := append(append([]*FileMeta(nil), job.inputs...), job.next...)
	bounds := partitionBoundaries(all, db.opts.CompactionParallelism)
	ranges := make([]keyRange, 0, len(bounds)+1)
	var lo []byte
	for _, b := range bounds {
		ranges = append(ranges, keyRange{lo: lo, hi: b})
		lo = b
	}
	ranges = append(ranges, keyRange{lo: lo})

	t0 := time.Now()
	run := newCompactionRun()
	outs := make([]chan []compactionEntry, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		outs[i] = make(chan []compactionEntry, 4)
		merger := db.opts.Merge
		if forker, ok := merger.(MergerForker); ok {
			merger = forker.ForkMerger()
		}
		wg.Add(1)
		go func(kr keyRange, out chan<- []compactionEntry, m Merger) {
			defer wg.Done()
			db.subcompact(run, all, kr, target, job.base, m, out)
		}(ranges[i], outs[i], merger)
	}

	// Ordered write stage: drain partitions in key order. On failure keep
	// draining (never strand a sender), then surface the first error.
	w := db.newCompactionWriter(tr)
	var werr error
	for _, out := range outs {
		for batch := range out {
			if werr != nil {
				continue
			}
			for _, e := range batch {
				if err := w.add(e.ik, e.value); err != nil {
					werr = err
					run.fail(keyRange{}, err)
					break
				}
			}
		}
	}
	wg.Wait()
	err := run.firstErr()
	if werr != nil {
		err = werr // writer failure: report it bare, no partition range
	}
	var outputs []*FileMeta
	if err == nil {
		outputs, err = w.finish()
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	db.subcompactions.Add(int64(len(ranges)))
	tr.Add(metrics.PhaseCompactWrite, time.Duration(w.writeNS))
	tr.Add(metrics.PhaseCompactMerge, time.Since(t0)-time.Duration(w.writeNS))
	return outputs, nil
}

// CompactionStats reports the sub-compaction engine's counters: total
// partitions merged, partition workers busy right now, and cumulative
// time writers spent stalled on the L0 stop trigger.
type CompactionStats struct {
	Subcompactions int64
	WorkersBusy    int64
	StallSeconds   float64
}

// CompactionStats returns the engine's sub-compaction counters.
func (db *DB) CompactionStats() CompactionStats {
	return CompactionStats{
		Subcompactions: db.subcompactions.Load(),
		WorkersBusy:    db.workersBusy.Load(),
		StallSeconds:   float64(db.stallNS.Load()) / float64(time.Second),
	}
}
