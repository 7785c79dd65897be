package core

import (
	"bytes"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/sstable"
)

// The Lazy index (paper §4.1.2) also keeps a stand-alone posting-list
// table per attribute, but a PUT just appends a one-entry fragment —
// PUT(a_i, [k]) — with no read. The MemTable keeps each fragment as its
// own version of the attribute value's key; the flush coalesces a key's
// versions into one fragment, and index-table compaction merges the
// fragments that accumulate one per stratum. LOOKUP therefore walks
// strata newest-first, merging the fragments it finds, and stops as soon
// as K results are valid — fragments deeper down are strictly older for
// the same secondary key.

// lazyAppend is the blind write: a one-entry fragment for key under
// attrValue at seq, the seq of the primary record it indexes, or with del
// a deletion marker (paper: "DEL operation similarly issues a PUT(a_i
// del, [k]) ... used during merge in compaction to remove the deleted
// entry"). The fragment is built in the shared scratch; the engine copies
// the value before Put returns.
//
//lsm:locked — writeMu is held by indexWrite's callers.
func (db *DB) lazyAppend(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool) error {
	db.postBuf = postings.AppendSingle(db.postBuf[:0], key, seq, del)
	return idx.PutAt(attrValue, db.postBuf, seq)
}

// lazyStrata fetches the fragments stored for one secondary key, newest
// stratum first: the MemTable, the frozen MemTable, each L0 file, then
// each deeper level (each holds at most one). A MemTable's fragment is
// the key's newest version, chained to its older ones. A tombstone for
// the key ends the walk. Fragment bytes alias stable arena or block
// memory.
type lazyStrata struct {
	value  []byte
	seek   []byte // SeekKey(value), for the MemTable strata
	tr     *metrics.Trace
	sc     sstable.GetScratch // one scratch across every index-table probe
	strata []lsm.Stratum      // not yet probed
}

func (s *lazyStrata) next() (fragment, bool, error) {
	for len(s.strata) > 0 {
		st := s.strata[0]
		s.strata = s.strata[1:]
		var f fragment
		var found, deleted bool
		if st.IsMem() {
			if s.seek == nil {
				s.seek = ikey.SeekKey(s.value)
			}
			it := st.MemIter()
			it.SeekGE(s.seek)
			if it.Valid() && bytes.Equal(ikey.UserKey(it.Key()), s.value) {
				found, deleted = true, ikey.KindOf(it.Key()) == ikey.KindDelete
				f = fragment{data: it.Value(), chain: memChain{it: *it}} //lsm:aliasok arena memory, never reused
			}
		} else {
			fm := st.FindFile(s.value)
			if fm == nil {
				continue
			}
			s.tr.AtLevel(st.Level)
			ik, d, ok, err := fm.Table().GetWith(&s.sc, s.value)
			if err != nil {
				return fragment{}, false, err
			}
			f.data, found, deleted = d, ok, ok && ikey.KindOf(ik) == ikey.KindDelete
		}
		if found && deleted {
			s.strata = nil // whole secondary key tombstoned
		} else if found {
			return f, true, nil
		}
	}
	return fragment{}, false, nil
}

// due is fragmentFeed's: a stratum is newer than every deeper one, so the
// walk's next fragment is needed only once the heap runs dry.
func (s *lazyStrata) due(_ uint64, empty bool) bool { return empty }

func (s *lazyStrata) fetch(dst []fragment) ([]fragment, bool, error) {
	f, ok, err := s.next()
	if ok {
		dst = append(dst, f)
	}
	return dst, ok, err
}

// lazyLookup is Algorithm 3: walk the index table level by level (each
// holds at most one fragment), validating candidates against the data
// table until K are valid. The walk runs inside the view, so the fragments
// it fetches stay valid.
func (db *DB) lazyLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	var out []Entry
	err := idx.View(func(v *lsm.View) error {
		strata := &lazyStrata{value: []byte(value), tr: tr, sc: sstable.GetScratch{Trace: tr}, strata: v.Strata()}
		var err error
		out, err = db.collect(newFeedHeap(strata, tr),
			&query{attr: attr, lo: value, hi: value, k: k, idx: idx, phase: metrics.PhaseIndexProbe, tr: tr})
		return err
	})
	return out, err
}

// postingRangeLookup is the posting kinds' RANGELOOKUP: Lazy's Algorithm
// 6 and Eager's range scan (paper §4.1.1). Fragments of different
// secondary keys are not time-ordered across levels, so the paper visits
// every level. But every index record is written at the seq of the
// primary record it indexes, so a table's MaxSeq bounds the postings it
// holds, and each block's max seq bounds the postings of the block:
// postingUnits opens blocks newest-bound first and the query stops at the
// K-th valid result. The walk runs inside the view, so the fragments it
// queues stay valid.
func (db *DB) postingRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	var out []Entry
	err := idx.View(func(v *lsm.View) error {
		units := newPostingUnits(v, []byte(lo), upperBoundExclusive(hi), db.seqFloor, db.opts.Index == IndexLazy, tr)
		var err error
		out, err = db.collect(newFeedHeap(units, tr),
			&query{attr: attr, lo: lo, hi: hi, k: k, idx: idx, phase: metrics.PhaseIndexProbe, tr: tr})
		return err
	})
	return out, err
}

// postingUnits feeds a posting RANGELOOKUP one unit at a time: the
// fragment of every secondary key in [lo, hiExcl) that a MemTable or a
// table's block holds (a Lazy fragment or an Eager list). A fragment
// written at seq s holds postings with seqs at or below s, and a flushed
// or compaction-merged value keeps its newest input's seq, so a unit's
// bound — a MemTable's or a block's max seq, raised to the database's seq
// floor — bounds every posting in it. A unit is due once the heap's top
// is older than its bound (unitQueue). A MemTable holds every version of
// a key: a Lazy key's newest version comes chained to its older ones,
// each a blind fragment of its own. Eager's older lists of a key add only
// entries that the key's newest list holds at the same or a newer seq, so
// they never change a primary key's first occurrence, and Eager reads the
// newest alone.
type postingUnits struct {
	q      unitQueue
	seek   []byte // ikey.SeekKey(lo)
	chains bool   // Lazy: chain a MemTable key's older versions
	tr     *metrics.Trace
	blk    sstable.BlockIter // the block unit being opened
	arena  []byte            // copies of block fragments; only appended to
	past   []byte            // seek target past the current key
}

// newPostingUnits is the feed of a RANGELOOKUP over [lo, hiExcl) in v.
func newPostingUnits(v *lsm.View, lo, hiExcl []byte, floor uint64, chains bool, tr *metrics.Trace) *postingUnits {
	return &postingUnits{q: seqUnits(v, lo, hiExcl, floor), seek: ikey.SeekKey(lo), chains: chains, tr: tr}
}

func (u *postingUnits) due(top uint64, empty bool) bool { return u.q.due(top, empty) }

// fetch appends the due unit's in-range fragments to dst. A MemTable's
// values alias arena memory that is never reused, so its fragments stay
// valid past the iteration. A block holds one version per key, and its
// values are valid only until the next block loads, so its fragments are
// copied to u's arena. The arena is only appended to: a fragment copied
// before it grew keeps the old array.
func (u *postingUnits) fetch(dst []fragment) ([]fragment, bool, error) {
	if len(u.q.units) == 0 {
		return dst, false, nil
	}
	st := u.q.pop()
	if !st.IsMem() {
		err := blockEntries(&u.blk, st, u.seek, u.q.hiExcl, u.tr, func(ik, value []byte) {
			if ikey.KindOf(ik) != ikey.KindDelete {
				start := len(u.arena)
				u.arena = append(u.arena, value...)
				dst = append(dst, fragment{data: u.arena[start:len(u.arena):len(u.arena)]})
			}
		})
		return dst, true, err
	}
	it := st.MemIter()
	for it.SeekGE(u.seek); it.Valid(); {
		ik := it.Key()
		uk := ikey.UserKey(ik)
		if bytes.Compare(uk, u.q.hiExcl) >= 0 {
			break
		}
		if ikey.KindOf(ik) != ikey.KindDelete {
			f := fragment{data: it.Value()} //lsm:aliasok arena memory, never reused
			if u.chains {
				f.chain = memChain{it: *it}
			}
			dst = append(dst, f)
		}
		// Skip the key's other versions by a forward seek from the
		// current node, which neither walks a hot key's versions
		// nor descends from the head of the list.
		u.past = ikey.AppendSeekPast(u.past[:0], uk)
		it.SeekForward(u.past)
	}
	return dst, true, nil
}
