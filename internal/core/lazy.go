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
// PUT(a_i, [k]) — with no read. Fragments for the same attribute value
// accumulate one per stratum and merge during index-table compaction (and,
// in the MemTable, at write time via the engine's WriteMerge hook, which
// is memory-only). LOOKUP therefore walks strata newest-first, merging the
// fragments it finds, and stops as soon as K results are valid — fragments
// deeper down are strictly older for the same secondary key.

// lazyAppend is the blind write: a one-entry fragment for key under
// attrValue, or with del a deletion marker (paper: "DEL operation
// similarly issues a PUT(a_i del, [k]) ... used during merge in compaction
// to remove the deleted entry"). The fragment is built in the shared
// scratch; the engine copies the value before Put returns.
//
//lsm:locked — writeMu is held by indexWrite's callers.
func (db *DB) lazyAppend(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool) error {
	db.postBuf = postings.AppendSingle(db.postBuf[:0], key, seq, del)
	return idx.Put(attrValue, db.postBuf)
}

// lazyStrata fetches the fragments stored for one secondary key, newest
// stratum first: the MemTable, the frozen MemTable, each L0 file, then
// each deeper level (each holds at most one). A tombstone for the key
// ends the chain. Fragment bytes alias stable arena or block memory.
type lazyStrata struct {
	value  []byte
	tr     *metrics.Trace
	sc     sstable.GetScratch // one scratch across every index-table probe
	strata []lsm.Stratum      // not yet probed
}

func (s *lazyStrata) next() ([]byte, bool, error) {
	for len(s.strata) > 0 {
		st := s.strata[0]
		s.strata = s.strata[1:]
		var data []byte
		var found, deleted bool
		if st.IsMem() {
			data, _, deleted, found = st.MemGet(s.value)
		} else {
			fm := st.FindFile(s.value)
			if fm == nil {
				continue
			}
			m := s.tr.BlockMark()
			ik, d, ok, err := fm.Table().GetWith(&s.sc, s.value)
			s.tr.CountLevelSince(st.Level, m)
			if err != nil {
				return nil, false, err
			}
			data, found, deleted = d, ok, ok && ikey.KindOf(ik) == ikey.KindDelete
		}
		if found && deleted {
			s.strata = nil // whole secondary key tombstoned
		} else if found {
			return data, true, nil
		}
	}
	return nil, false, nil
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
		out, err = db.collect(&fragmentHeap{fetch: strata.next, tr: tr},
			&query{attr: attr, lo: value, hi: value, k: k, idx: idx, phase: metrics.PhaseIndexProbe, tr: tr})
		return err
	})
	return out, err
}

// lazyRangeLookup is Algorithm 6: for a range of secondary keys, fragments
// for *different* keys are not time-ordered across levels, so every level
// must be visited (paper §4.1.2); the fragments of every key in range feed
// one heap of cursors, validated newest-first.
func (db *DB) lazyRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	t0 := tr.Now()
	frags, err := lazyRangeFragments(idx, lo, hi, tr)
	tr.Since(metrics.PhaseIndexProbe, t0)
	if err != nil {
		return nil, err
	}
	return db.collectFragments(frags, idx, attr, lo, hi, k, tr)
}

// lazyRangeFragments gathers, from every stratum of the index table, the
// fragment of each secondary key in [lo, hi] that the stratum holds.
func lazyRangeFragments(idx *lsm.DB, lo, hi string, tr *metrics.Trace) ([][]byte, error) {
	var frags [][]byte
	err := idx.View(func(v *lsm.View) error {
		loB, hiExcl := []byte(lo), upperBoundExclusive(hi)

		// A MemTable holds every version of a key, newest first; its values
		// alias arena memory that is never reused, so the newest fragment
		// stays valid past the iteration. A table holds one version per key,
		// and its iterator reuses value bytes across Next, so fragments are
		// copied.
		seek := ikey.SeekKey(loB)
		for _, s := range v.Strata() {
			if s.IsMem() {
				var prevUser []byte
				it := s.MemIter()
				for it.SeekGE(seek); it.Valid(); it.Next() {
					ik := it.Key()
					uk := ikey.UserKey(ik)
					if bytes.Compare(uk, hiExcl) >= 0 {
						break
					}
					newest := prevUser == nil || !bytes.Equal(prevUser, uk)
					prevUser = append(prevUser[:0], uk...)
					if newest && ikey.KindOf(ik) != ikey.KindDelete {
						frags = append(frags, it.Value()) //lsm:aliasok
					}
				}
				continue
			}
			for _, fm := range s.Overlapping(loB, []byte(hi)) {
				ti := fm.Table().NewIteratorTraced(false, tr)
				for ok := ti.SeekGE(seek); ok; ok = ti.Next() {
					ik := ti.Key()
					if bytes.Compare(ikey.UserKey(ik), hiExcl) >= 0 {
						break
					}
					if ikey.KindOf(ik) != ikey.KindDelete {
						frags = append(frags, bytes.Clone(ti.Value()))
					}
				}
				if err := ti.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return frags, err
}
