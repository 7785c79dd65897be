package core

import (
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
)

// The Composite index (paper §4.2) stores, per indexed attribute, a
// stand-alone LSM table whose keys are the concatenation
// (secondary key ∥ 0x00 ∥ primary key) and whose values are empty.
// LOOKUP is a prefix range scan; because composite keys are ordered by
// key, not by time, and compaction moves arbitrary key ranges down, the
// scan must traverse every level before the top-K can be decided —
// the paper's explanation for why Composite loses to Lazy at small K but
// wins when K is unbounded (no posting-list CPU cost).

func compositeKey[T string | []byte](attrValue T, primaryKey string) []byte {
	k := make([]byte, 0, len(attrValue)+1+len(primaryKey))
	k = append(k, attrValue...)
	k = append(k, compositeSep)
	k = append(k, primaryKey...)
	return k
}

// compositeWrite inserts the composite key, or with del writes a
// tombstone for it (paper: "a DEL operation inserts the composite key
// with a deletion marker in index table").
func compositeWrite(idx *lsm.DB, attrValue []byte, key string, del bool) error {
	if del {
		return idx.Delete(compositeKey(attrValue, key))
	}
	return idx.Put(compositeKey(attrValue, key), nil)
}

// compositeLookup is Algorithm 4: a prefix scan over the index table for
// attrValue ∥ 0x00. The merged scan inherently visits all levels (unlike
// Lazy there is no per-level early exit); candidates are then validated
// newest-first against the data table.
func (db *DB) compositeLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	return db.compositeRangeLookup(attr, value, value, k, tr)
}

// compositeRangeLookup is Algorithm 7: the prefix scan widens to every
// composite key whose secondary component lies in [lo, hi]; their primary
// keys go into a compositeHeap that collect drains newest first.
func (db *DB) compositeRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	var src compositeHeap
	t0 := tr.Now()
	err := idx.ScanTraced(compositeKey(lo, ""), append([]byte(hi), compositeSep+1), tr, func(key, _ []byte, seq uint64) bool {
		if src.add(key, lo, hi, seq) {
			tr.Count(metrics.CtrPostingEntries, 1)
		}
		return true
	})
	tr.Since(metrics.PhaseIndexProbe, t0)
	if err != nil {
		return nil, err
	}
	t0 = tr.Now()
	heapify(src.h, newerComposite)
	tr.Since(metrics.PhasePostingMerge, t0)
	return db.collect(&src, &query{attr: attr, lo: lo, hi: hi, k: k, idx: idx, phase: metrics.PhasePostingMerge, tr: tr})
}
