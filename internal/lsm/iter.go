package lsm

import (
	"bytes"
	"container/heap"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
)

// scanCursor is one source of the merged scan, positioned on an entry: a
// MemTable's skip-list iterator or a table's iterator.
type scanCursor struct {
	mem *skiplist.Iterator
	tbl *sstable.Iterator
}

func (c scanCursor) key() []byte {
	if c.mem != nil {
		return c.mem.Key()
	}
	return c.tbl.Key()
}

func (c scanCursor) value() []byte {
	if c.mem != nil {
		return c.mem.Value()
	}
	return c.tbl.Value()
}

// next moves to the following entry and reports whether there is one.
func (c scanCursor) next() bool {
	if c.mem != nil {
		c.mem.Next()
		return c.mem.Valid()
	}
	return c.tbl.Next()
}

type scanHeap []scanCursor

func (h scanHeap) Len() int            { return len(h) }
func (h scanHeap) Less(i, j int) bool  { return ikey.Compare(h[i].key(), h[j].key()) < 0 }
func (h scanHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x interface{}) { *h = append(*h, x.(scanCursor)) }
func (h *scanHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Scan performs a merged, newest-wins range scan over [lo, hiExcl):
// exactly one callback per live user key, tombstones suppressed, in
// ascending user-key order. A nil hiExcl means unbounded; fn returning
// false stops the scan. The callback receives the key's newest sequence
// number (insertion-time ordering for top-K processing).
func (db *DB) Scan(lo, hiExcl []byte, fn func(key, value []byte, seq uint64) bool) error {
	return db.ScanTraced(lo, hiExcl, nil, fn)
}

// ScanTraced is Scan with every SSTable block fetch attributed to tr
// (block-load/cache-hit sub-phases plus the per-op block counters). tr may
// be nil.
func (db *DB) ScanTraced(lo, hiExcl []byte, tr *metrics.Trace, fn func(key, value []byte, seq uint64) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return scanStrata(db.strataLocked(), lo, hiExcl, tr, fn)
}

func scanStrata(strata []Stratum, lo, hiExcl []byte, tr *metrics.Trace, fn func(key, value []byte, seq uint64) bool) error {
	seekKey := ikey.SeekKey(lo)

	var h scanHeap
	for _, s := range strata {
		if s.IsMem() {
			mi := s.MemIter()
			mi.SeekGE(seekKey)
			if mi.Valid() {
				heap.Push(&h, scanCursor{mem: mi})
			}
			continue
		}
		for _, fm := range s.Tables {
			if !fm.Overlaps(lo, hiExcl) {
				continue
			}
			it := fm.tbl.NewIteratorTraced(false, tr)
			if it.SeekGE(seekKey) {
				heap.Push(&h, scanCursor{tbl: it})
			}
			if err := it.Err(); err != nil {
				return err
			}
		}
	}

	var curUser []byte
	for h.Len() > 0 {
		ik, val := h[0].key(), h[0].value()
		uk := ikey.UserKey(ik)
		if hiExcl != nil && bytes.Compare(uk, hiExcl) >= 0 {
			return nil
		}
		emit := curUser == nil || !bytes.Equal(curUser, uk)
		if emit {
			curUser = append(curUser[:0], uk...)
			if ikey.KindOf(ik) != ikey.KindDelete {
				if !fn(uk, val, ikey.Seq(ik)) {
					return nil
				}
			}
		}
		if h[0].next() {
			heap.Fix(&h, 0)
		} else if c := heap.Pop(&h).(scanCursor); c.tbl != nil && c.tbl.Err() != nil {
			return c.tbl.Err()
		}
	}
	return nil
}
