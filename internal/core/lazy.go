package core

import (
	"bytes"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
)

// The Lazy index (paper §4.1.2) also keeps a stand-alone posting-list
// table per attribute, but a PUT just appends a one-entry fragment —
// PUT(a_i, [k]) — with no read. Fragments for the same attribute value
// accumulate one per stratum and merge during index-table compaction (and,
// in the MemTable, at write time via the engine's WriteMerge hook, which
// is memory-only). LOOKUP therefore walks strata newest-first, merging the
// fragments it finds, and may stop at the first stratum boundary where the
// top-K heap is full — fragments deeper down are strictly older for the
// same secondary key.

// lazyAppend is the blind write: a one-entry fragment for key under
// attrValue, or with del a deletion marker (paper: "DEL operation
// similarly issues a PUT(a_i del, [k]) ... used during merge in compaction
// to remove the deleted entry"). The fragment is built in the shared
// scratch; the engine copies the value before Put returns.
//
//lsm:locked — writeMu is held by indexWrite's callers.
func (db *DB) lazyAppend(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool) error {
	db.postBuf = postings.AppendSingle(db.postBuf[:0], key, seq, del, db.pf)
	return idx.Put(attrValue, db.postBuf)
}

// lazyFragments visits every fragment stored for secondary key value,
// newest stratum first: the MemTable fragment, then one per L0 file, then
// one per deeper level. fn receives the fragment's encoded bytes (either
// posting-list format; they alias stable arena/block memory) and returns
// false to stop early.
func lazyFragments(v *lsm.View, value []byte, tr *metrics.Trace, fn func(data []byte) (bool, error)) error {
	if data, _, deleted, ok := v.MemGet(value); ok && !deleted {
		if cont, err := fn(data); err != nil || !cont {
			return err
		}
	} else if ok && deleted {
		return nil // whole secondary key tombstoned
	}
	if v.HasImm() { // frozen MemTable stratum (background mode)
		if data, _, deleted, ok := v.ImmGet(value); ok && !deleted {
			if cont, err := fn(data); err != nil || !cont {
				return err
			}
		} else if ok && deleted {
			return nil
		}
	}
	// One scratch across every index-table probe; fragment bytes alias
	// stable block contents, only the internal key is scratch-backed.
	var sc sstable.GetScratch
	sc.Trace = tr
	for _, fm := range v.L0() {
		m := tr.BlockMark()
		ik, data, found, err := fm.Table().GetWith(&sc, value)
		tr.CountLevelSince(0, m)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		if ikey.KindOf(ik) == ikey.KindDelete {
			return nil
		}
		if cont, err := fn(data); err != nil || !cont {
			return err
		}
	}
	for l := 1; l <= v.MaxLevel(); l++ {
		fm := v.FindLevelFile(l, value)
		if fm == nil {
			continue
		}
		m := tr.BlockMark()
		ik, data, found, err := fm.Table().GetWith(&sc, value)
		tr.CountLevelSince(l, m)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		if ikey.KindOf(ik) == ikey.KindDelete {
			return nil
		}
		if cont, err := fn(data); err != nil || !cont {
			return err
		}
	}
	return nil
}

// lazyLookup is Algorithm 3: walk the index table level by level; each
// level holds at most one fragment; validate candidates against the data
// table; stop at a level boundary once K valid results are held (deeper
// fragments are older).
func (db *DB) lazyLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	heap := newTopK(k)
	seen := map[string]bool{}
	var c postings.Cursor
	var decodedBytes, decodedEntries, frags int64
	// The mark closes an index_probe interval (stratum walk + fragment
	// decode) whenever a validation starts, and reopens it after, so the
	// two phases tile the traversal without overlap.
	mark := tr.Now()
	err := idx.View(func(v *lsm.View) error {
		return lazyFragments(v, []byte(value), tr, func(data []byte) (bool, error) {
			frags++
			tr.Count(metrics.CtrPostingFragments, 1)
			tD := tr.Now()
			if err := c.Reset(data); err != nil {
				return false, err
			}
			tr.Since(metrics.PhasePostingsDecode, tD)
			// Entries within a fragment are newest-first by the write
			// path's invariant; sorted tracks whether this fragment
			// honours it, which gates the mid-fragment early stop.
			sorted, first := true, true
			var prevSeq uint64
			for c.Next() {
				seq := c.Seq()
				if !first && seq > prevSeq {
					sorted = false
				}
				prevSeq, first = seq, false
				if seen[string(c.Key())] {
					continue // newer fragment already decided this key
				}
				pk := string(c.Key())
				seen[pk] = true
				if c.Del() || !heap.Worth(seq) {
					continue
				}
				tr.Since(metrics.PhaseIndexProbe, mark)
				doc, valid, err := db.validateTraced(pk, attr, value, value, tr)
				mark = tr.Now()
				if err != nil {
					return false, err
				}
				if valid {
					heap.Add(Entry{Key: pk, Value: doc, Seq: seq})
					if heap.Full() && sorted {
						// Every remaining entry in this fragment is older
						// than the heap's minimum; stop decoding the tail.
						break
					}
				}
			}
			decodedBytes += c.BytesDecoded()
			decodedEntries += c.EntriesDecoded()
			if err := c.Err(); err != nil {
				return false, err
			}
			// Stop descending once the heap is full: every entry in a
			// deeper fragment of this secondary key is older than every
			// entry already consumed.
			return !heap.Full(), nil
		})
	})
	tr.Since(metrics.PhaseIndexProbe, mark)
	if err != nil {
		return nil, err
	}
	tr.Count(metrics.CtrPostingEntries, decodedEntries)
	st := idx.Stats()
	st.PostingsBytesDecoded.Add(decodedBytes)
	st.PostingsEntriesDecoded.Add(decodedEntries)
	st.FragmentsMerged.Add(frags)
	return heap.Results(), nil
}

// lazyRangeLookup is Algorithm 6: for a range of secondary keys, fragments
// for *different* keys are not time-ordered across levels, so every level
// must be visited (paper §4.1.2); all fragments merge into one candidate
// pool which is validated newest-first.
func (db *DB) lazyRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	heap := newTopK(k)
	// Secondary key → encoded fragments, newest stratum first. Decoding is
	// deferred to the streaming merge below, so the scan itself only
	// gathers bytes.
	perKey := map[string][][]byte{}

	t0 := tr.Now()
	err := idx.View(func(v *lsm.View) error {
		loB, hiExcl := []byte(lo), upperBoundExclusive(hi)

		// MemTable strata: the live MemTable, then the frozen one if a
		// background flush is pending. Skiplist values alias stable arena
		// memory, so they are kept without copying.
		scanMem := func(it *skiplist.Iterator) error {
			if it == nil {
				return nil
			}
			var prevUser []byte
			for it.SeekGE(ikey.SeekKey(loB)); it.Valid(); it.Next() {
				ik := it.Key()
				uk := ikey.UserKey(ik)
				if bytes.Compare(uk, hiExcl) >= 0 {
					break
				}
				newest := prevUser == nil || !bytes.Equal(prevUser, uk)
				prevUser = append(prevUser[:0], uk...)
				if !newest || ikey.KindOf(ik) == ikey.KindDelete {
					continue
				}
				// Skiplist values alias arena memory that is never reused,
				// so the fragment stays valid past the iteration.
				perKey[string(uk)] = append(perKey[string(uk)], it.Value()) //lsm:aliasok
			}
			return nil
		}
		if err := scanMem(v.MemIter()); err != nil {
			return err
		}
		if err := scanMem(v.ImmIter()); err != nil {
			return err
		}

		// Table strata: each L0 file, then each deeper level. Iterator
		// value bytes are reused across Next, so fragments are copied.
		scanTable := func(fm *lsm.FileMeta) error {
			ti := fm.Table().NewIteratorTraced(false, tr)
			var prev []byte
			for ok := ti.SeekGE(ikey.SeekKey(loB)); ok; ok = ti.Next() {
				ik := ti.Key()
				uk := ikey.UserKey(ik)
				if bytes.Compare(uk, hiExcl) >= 0 {
					break
				}
				newest := prev == nil || !bytes.Equal(prev, uk)
				prev = append(prev[:0], uk...)
				if !newest || ikey.KindOf(ik) == ikey.KindDelete {
					continue
				}
				frag := append([]byte(nil), ti.Value()...)
				perKey[string(uk)] = append(perKey[string(uk)], frag)
			}
			return ti.Err()
		}
		for _, fm := range v.L0() {
			if err := scanTable(fm); err != nil {
				return err
			}
		}
		for l := 1; l <= v.MaxLevel(); l++ {
			for _, fm := range v.OverlappingFiles(l, loB, []byte(hi)) {
				if err := scanTable(fm); err != nil {
					return err
				}
			}
		}
		return nil
	})
	tr.Since(metrics.PhaseIndexProbe, t0)
	if err != nil {
		return nil, err
	}

	// Merge each key's fragments directly from the encoded bytes into the
	// candidate pool (newest-fragment order within a key is irrelevant:
	// the merge keeps max-seq per primary key). Deletion markers drop here
	// like the decoded path's Merge(frags, true) did.
	t0 = tr.Now()
	var candidates []postings.Entry
	var sc postings.MergeScratch
	var decodedBytes, decodedEntries, frags int64
	for _, encFrags := range perKey {
		err := sc.MergeFunc(encFrags, true, func(key []byte, seq uint64, del bool) {
			candidates = append(candidates, postings.Entry{Key: string(key), Seq: seq, Del: del})
		})
		if err != nil {
			tr.Since(metrics.PhasePostingMerge, t0)
			tr.Since(metrics.PhasePostingsDecode, t0)
			return nil, err
		}
		decodedBytes += sc.BytesDecoded()
		decodedEntries += sc.EntriesDecoded()
		frags += sc.FragmentsMerged()
	}
	tr.Since(metrics.PhasePostingMerge, t0)
	tr.Since(metrics.PhasePostingsDecode, t0)
	tr.Count(metrics.CtrPostingFragments, frags)
	tr.Count(metrics.CtrPostingEntries, decodedEntries)
	st := idx.Stats()
	st.PostingsBytesDecoded.Add(decodedBytes)
	st.PostingsEntriesDecoded.Add(decodedEntries)
	st.FragmentsMerged.Add(frags)
	if err := db.validateCandidates(candidates, attr, lo, hi, k, heap, tr); err != nil {
		return nil, err
	}
	return heap.Results(), nil
}
