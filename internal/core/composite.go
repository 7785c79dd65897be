package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
)

// The Composite index (paper §4.2) stores, per indexed attribute, a
// stand-alone LSM table whose keys are the concatenation
// (secondary key ∥ 0x00 ∥ primary key) and whose values are empty.
// LOOKUP is a prefix range scan. Composite keys are ordered by key, not by
// time, so the paper's scan traverses every level before the top-K can be
// decided. But an entry's seq is its candidate's seq (the primary record's,
// for an entry written since index records carry it), so a table's MaxSeq
// bounds what it holds: compositeSource opens tables newest-MaxSeq first
// and stops at the K-th valid candidate; only an unbounded K reads every
// level, where Composite beats Lazy by skipping posting-list decoding.
// A table that comes due is opened one block at a time, each block
// bounded by its own max seq.

func compositeKey[T string | []byte](attrValue T, primaryKey string) []byte {
	k := make([]byte, 0, len(attrValue)+1+len(primaryKey))
	k = append(k, attrValue...)
	k = append(k, compositeSep)
	k = append(k, primaryKey...)
	return k
}

// compositeWrite inserts the composite key at seq, the seq of the primary
// record it indexes, or with del writes a tombstone for it (paper: "a DEL
// operation inserts the composite key with a deletion marker in index
// table").
func compositeWrite(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool) error {
	if del {
		return idx.DeleteAt(compositeKey(attrValue, key), seq)
	}
	return idx.PutAt(compositeKey(attrValue, key), nil, seq)
}

// compositeLookup is Algorithms 4 (lo = hi) and 7: the prefix scan of
// every composite key whose secondary component lies in [lo, hi], run
// inside the view so that the tables the source opens stay live.
func (db *DB) compositeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	var out []Entry
	err := idx.View(func(v *lsm.View) error {
		var err error
		out, err = db.collect(newCompositeSource(v, lo, hi, tr),
			&query{attr: attr, lo: lo, hi: hi, k: k, idx: idx, phase: metrics.PhaseIndexProbe, tr: tr})
		return err
	})
	return out, err
}

// compositeSource is Composite's candidate source. Its units are the
// view's MemTables and the blocks of the tables overlapping the query's
// key range (unitQueue). A unit is opened — its in-range entries,
// tombstones included, queued on a max-heap by seq — once the top is
// older than the unit's bound, so the top is the newest entry of the
// whole view. A popped tombstone hides only its own composite key's older
// versions: primary keys first occur in the order of a merged scan of the
// view ranked by seq. A tombstone's block is bounded by at least its seq,
// which is above the seq of every version it hides, so it is queued
// before any of them is popped.
type compositeSource struct {
	lo, hi string
	seek   []byte
	tr     *metrics.Trace
	q      unitQueue
	blk    sstable.BlockIter // the block unit being opened
	arena  []byte
	h      []compositeCand
	dead   map[string]struct{} // composite keys whose newest version is a tombstone
	err    error
}

// compositeCand is a queued composite key arena[start:end] and its
// primary key arena[pk:end].
type compositeCand struct {
	start, pk, end int
	seq            uint64
	del            bool
}

// compositePool recycles compositeSources with their key buffers, block
// iterator, arena, heap and dead set, which a query would otherwise grow
// afresh while it opens units.
var compositePool = sync.Pool{New: func() any { return new(compositeSource) }}

// maxPooledCands bounds what a finished source keeps: past 4096 queued
// candidates (160 KiB of heap) or 256 KiB of arena, a rare unbounded
// RANGELOOKUP drops its source instead of pinning that much memory in
// every P's pool slot.
const maxPooledCands = 4096

// newCompositeSource is a pooled source over v; finish returns it to the
// pool.
func newCompositeSource(v *lsm.View, lo, hi string, tr *metrics.Trace) *compositeSource {
	s := compositePool.Get().(*compositeSource)
	s.lo, s.hi, s.tr = lo, hi, tr
	loKey := append(append(s.q.lo[:0], lo...), compositeSep)
	hiExcl := append(append(s.q.hiExcl[:0], hi...), compositeSep+1)
	s.seek = ikey.AppendSeek(s.seek[:0], loKey)
	s.q = seqUnits(v, loKey, hiExcl, 0)
	return s
}

// release empties s, dropping its references to tables, and returns it to
// the pool with its buffers.
func (s *compositeSource) release() {
	if cap(s.h) > maxPooledCands || cap(s.arena) > 64*maxPooledCands {
		return
	}
	dead := s.dead
	if len(dead) > maxPooledCands {
		dead = nil
	}
	clear(dead)
	*s = compositeSource{q: unitQueue{lo: s.q.lo[:0], hiExcl: s.q.hiExcl[:0]}, seek: s.seek[:0],
		blk: s.blk, arena: s.arena[:0], h: s.h[:0], dead: dead}
	compositePool.Put(s)
}

// seqUnit is one unit of a seq-bounded source — a MemTable, a table as a
// one-table stratum, or one block of such a table — with a bound on the
// seq of every candidate it holds.
type seqUnit struct {
	lsm.Stratum
	bound uint64
	block int // a block unit's block; -1 for a MemTable or a whole table
}

func newerUnit(a, b seqUnit) bool { return a.bound > b.bound }

// unitQueue holds the units a seq-bounded source has not opened yet, a
// max-heap by bound, and the user-key range [lo, hiExcl) they are cut to.
// Units of equal bound may open in any order: every one whose bound is
// above the top opens before the top is handed out.
type unitQueue struct {
	units      []seqUnit
	lo, hiExcl []byte
	floor      uint64
}

// seqUnits queues the view's MemTables and the tables whose user keys
// intersect [lo, hiExcl), each bounded by max(MaxSeq, floor) and sorted
// by bound, highest first, which makes the list a heap.
func seqUnits(v *lsm.View, lo, hiExcl []byte, floor uint64) unitQueue {
	q := unitQueue{lo: lo, hiExcl: hiExcl, floor: floor}
	for _, st := range v.Strata() {
		if st.IsMem() {
			q.units = append(q.units, seqUnit{st, max(st.MaxSeq(), floor), -1})
		}
		for i, fm := range st.Tables {
			if fm.Overlaps(lo, hiExcl) {
				q.units = append(q.units, seqUnit{lsm.Stratum{Level: st.Level, Tables: st.Tables[i : i+1 : i+1]}, max(fm.Table().MaxSeq(), floor), -1})
			}
		}
	}
	slices.SortStableFunc(q.units, func(a, b seqUnit) int { return cmp.Compare(b.bound, a.bound) })
	return q
}

// due reports whether the next unit may hold an entry newer than top, the
// seq of the source's newest queued entry, or, when none is queued
// (empty), whether any unit is left. A table that comes due is first
// replaced by one unit per block that may hold keys in [lo, hiExcl), each
// bounded by max(BlockMaxSeq, floor), so a block is read only once the top
// is older than its own bound, and a table that never comes due costs no
// walk of its block index. A table that records no block max seqs bounds
// every block by its MaxSeq. The unit at the front is then a MemTable or
// a block.
//
//lsm:hotpath
func (q *unitQueue) due(top uint64, empty bool) bool {
	for len(q.units) > 0 && (empty || q.units[0].bound > top) {
		u := q.units[0]
		if u.IsMem() || u.block >= 0 {
			return true
		}
		q.pop()
		t := u.Tables[0].Table()
		first, end := t.OverlappingBlocks(q.lo, q.hiExcl)
		for i := first; i < end; i++ {
			q.units = append(q.units, seqUnit{u.Stratum, max(t.BlockMaxSeq(i), q.floor), i})
			siftUp(q.units, len(q.units)-1, newerUnit)
		}
	}
	return false
}

// pop removes and returns the unit at the front.
func (q *unitQueue) pop() seqUnit {
	u := q.units[0]
	last := len(q.units) - 1
	q.units[0] = q.units[last]
	q.units = q.units[:last]
	siftDown(q.units, 0, newerUnit)
	return u
}

// blockEntries calls fn with the internal key and value of every entry of
// block unit u whose user key lies in [lo, hiExcl), where seek is
// ikey.SeekKey(lo). The block is loaded into it through Table.LoadBlock;
// without a block cache it is decoded into the iterator's own buffers, so
// what fn is handed is valid only until the iterator's next load, and fn
// copies what it keeps.
//
//lsm:hotpath
func blockEntries(it *sstable.BlockIter, u seqUnit, seek, hiExcl []byte, tr *metrics.Trace, fn func(ik, value []byte)) error {
	if err := u.Tables[0].Table().LoadBlock(it, u.block, tr); err != nil {
		return err
	}
	for ok := it.SeekGE(seek); ok && bytes.Compare(ikey.UserKey(it.Key()), hiExcl) < 0; ok = it.Next() {
		fn(it.Key(), it.Value())
	}
	return it.Err()
}

// open queues the in-range entries of the unit at the front.
func (s *compositeSource) open() {
	u := s.q.pop()
	if !u.IsMem() {
		s.err = blockEntries(&s.blk, u, s.seek, s.q.hiExcl, s.tr, func(ik, _ []byte) { s.add(ik) })
		return
	}
	it := u.MemIter()
	for it.SeekGE(s.seek); it.Valid() && s.add(it.Key()); it.Next() {
	}
}

// add queues the entry with internal key ik if its attribute value lies
// in [lo, hi]. It reports false once ik is past the range.
func (s *compositeSource) add(ik []byte) bool {
	ck := ikey.UserKey(ik)
	if bytes.Compare(ck, s.q.hiExcl) >= 0 {
		return false
	}
	i := bytes.IndexByte(ck, compositeSep)
	if i < 0 || string(ck[:i]) < s.lo || string(ck[:i]) > s.hi {
		return true
	}
	start := len(s.arena)
	s.arena = append(s.arena, ck...)
	s.h = append(s.h, compositeCand{start: start, pk: start + i + 1, end: len(s.arena), seq: ikey.Seq(ik), del: ikey.KindOf(ik) == ikey.KindDelete})
	siftUp(s.h, len(s.h)-1, newerComposite)
	s.tr.Count(metrics.CtrPostingEntries, 1)
	return true
}

func newerComposite(a, b compositeCand) bool { return a.seq > b.seq }

// topSeq is the seq of the newest queued entry, 0 when none is queued.
func (s *compositeSource) topSeq() uint64 {
	if len(s.h) == 0 {
		return 0
	}
	return s.h[0].seq
}

//lsm:hotpath
func (s *compositeSource) next() ([]byte, uint64, bool, bool) {
	for {
		for s.err == nil && s.q.due(s.topSeq(), len(s.h) == 0) {
			s.open()
		}
		if s.err != nil || len(s.h) == 0 {
			return nil, 0, false, false
		}
		top := s.h[0]
		last := len(s.h) - 1
		s.h[0] = s.h[last]
		s.h = s.h[:last]
		siftDown(s.h, 0, newerComposite)
		ck := s.arena[top.start:top.end]
		if top.del {
			if s.dead == nil {
				s.dead = map[string]struct{}{}
			}
			s.dead[string(ck)] = struct{}{}
		} else if _, hidden := s.dead[string(ck)]; !hidden {
			return s.arena[top.pk:top.end], top.seq, false, true
		}
	}
}

func (s *compositeSource) finish(*query) error {
	err := s.err
	s.release()
	return err
}
