package core

import (
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// The Eager index (paper §4.1.1) maintains, per indexed attribute, a
// stand-alone LSM table mapping attribute value → posting list. Every PUT
// performs a read-modify-write of the affected list ("in-place" update in
// the logical sense — physically it writes a new list that invalidates the
// older ones), so LOOKUP needs only the single newest list, but writes
// suffer the paper's headline write amplification (WAMF ≈ PL_S·22·(L−1)).

// eagerUpdate is the read-modify-write: fetch the current list, prepend
// the new posting, drop the superseded entry for the same primary key,
// and write the list back at seq, the new posting's. The stored list is
// already newest-first, so AppendAdd streams the update — no re-sort, and
// no intermediate []Entry — into the DB's scratch buffer. The list read's
// block accesses go to tr; its time stays in the caller's index_update.
//
//lsm:locked — writeMu is held by indexWrite's callers.
func (db *DB) eagerUpdate(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool, tr *metrics.Trace) error {
	tr.IOOnlyBegin()
	cur, _, err := idx.Get(attrValue, tr)
	tr.IOOnlyEnd()
	if err != nil {
		return err
	}
	out, decoded, err := postings.AppendAdd(db.postBuf[:0], cur, key, seq, del)
	if err != nil {
		return err
	}
	st := idx.Counters()
	st.PostingsBytesDecoded.Add(int64(len(cur)))
	st.PostingsEntriesDecoded.Add(decoded)
	err = idx.PutAt(attrValue, out, seq)
	db.postBuf = out[:0]
	return err
}

// eagerLookup is Algorithm 2: one GET on the index table retrieves the
// complete, newest-first posting list; candidates are validated with GETs
// on the data table until K valid results are found. The cursor leaves
// the list's tail undecoded once K are valid.
func (db *DB) eagerLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	tr.Enter(metrics.PhaseIndexProbe)
	// IOOnly: the nested GET's own top-level phases (mem/l0/level probes)
	// must not tile inside this op's index_probe window; only its block
	// counters carry through to the trace.
	tr.IOOnlyBegin()
	list, found, err := idx.Get([]byte(value), tr)
	tr.IOOnlyEnd()
	if err != nil || !found {
		return nil, err
	}
	tr.Enter(metrics.PhasePostingMerge)
	src, err := newFragmentHeap([][]byte{list}, tr)
	if err != nil {
		return nil, err
	}
	return db.collect(src, &query{attr: attr, lo: value, hi: value, k: k, idx: idx, phase: metrics.PhasePostingMerge, tr: tr})
}

// upperBoundExclusive converts an inclusive string upper bound into the
// exclusive byte bound used by lsm.Scan.
func upperBoundExclusive(hi string) []byte {
	return append([]byte(hi), 0x00)
}
