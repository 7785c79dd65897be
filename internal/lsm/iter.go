package lsm

import (
	"bytes"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// Scan performs a merged, newest-wins range scan over [lo, hiExcl):
// exactly one callback per live user key, tombstones suppressed, in
// ascending user-key order. A nil hiExcl means unbounded; fn returning
// false stops the scan. The callback receives the key's newest sequence
// number (insertion-time ordering for top-K processing). Every SSTable
// block fetch is attributed to tr (block-load/cache-hit sub-phases plus
// the per-op block counters), which may be nil.
func (db *DB) Scan(lo, hiExcl []byte, tr *metrics.Trace, fn func(key, value []byte, seq uint64) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return scanStrata(db.strataLocked(), lo, hiExcl, tr, fn)
}

func scanStrata(strata []Stratum, lo, hiExcl []byte, tr *metrics.Trace, fn func(key, value []byte, seq uint64) bool) error {
	seekKey := ikey.SeekKey(lo)

	var h mergeHeap
	for _, s := range strata {
		if s.IsMem() {
			mi := s.MemIter()
			mi.SeekGE(seekKey)
			h.pushMem(mi)
			continue
		}
		for _, fm := range s.Tables {
			if !fm.Overlaps(lo, hiExcl) {
				continue
			}
			it := fm.tbl.NewIteratorTraced(false, tr)
			if err := h.pushTable(it, it.SeekGE(seekKey)); err != nil {
				return err
			}
		}
	}

	var curUser []byte
	for len(h) > 0 {
		ik := h[0].key()
		uk := ikey.UserKey(ik)
		if hiExcl != nil && bytes.Compare(uk, hiExcl) >= 0 {
			return nil
		}
		if curUser == nil || !bytes.Equal(curUser, uk) {
			curUser = append(curUser[:0], uk...)
			if ikey.KindOf(ik) != ikey.KindDelete && !fn(uk, h[0].value(), ikey.Seq(ik)) {
				return nil
			}
		}
		if err := h.next(); err != nil {
			return err
		}
	}
	return nil
}
