package lsm

import (
	"bytes"
	"container/heap"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
)

// entryIter is the common shape of MemTable and SSTable iterators used by
// the merged scan.
type entryIter interface {
	Next() bool
	Key() []byte // internal key
	Value() []byte
	Err() error
}

// memIterAdapter turns a positioned skiplist iterator into an entryIter.
type memIterAdapter struct {
	it      *skiplist.Iterator
	started bool
}

func (a *memIterAdapter) Next() bool {
	if !a.started {
		a.started = true
	} else if a.it.Valid() {
		a.it.Next()
	}
	return a.it.Valid()
}
func (a *memIterAdapter) Key() []byte   { return a.it.Key() }
func (a *memIterAdapter) Value() []byte { return a.it.Value() }
func (a *memIterAdapter) Err() error    { return nil }

type scanSource struct{ it entryIter }

type scanHeap []*scanSource

func (h scanHeap) Len() int            { return len(h) }
func (h scanHeap) Less(i, j int) bool  { return ikey.Compare(h[i].it.Key(), h[j].it.Key()) < 0 }
func (h scanHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x interface{}) { *h = append(*h, x.(*scanSource)) }
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
				heap.Push(&h, &scanSource{it: &memIterAdapter{it: mi, started: true}})
			}
			continue
		}
		for _, fm := range s.Tables {
			if !fm.overlapsUser(lo, nil) {
				continue
			}
			it := fm.tbl.NewIteratorTraced(false, tr)
			if it.SeekGE(seekKey) {
				heap.Push(&h, &scanSource{it: &tableIterAdapter{it: it, positioned: true}})
			}
			if err := it.Err(); err != nil {
				return err
			}
		}
	}

	var curUser []byte
	for h.Len() > 0 {
		src := h[0]
		ik, val := src.it.Key(), src.it.Value()
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
		if src.it.Next() {
			heap.Fix(&h, 0)
		} else {
			if err := src.it.Err(); err != nil {
				return err
			}
			heap.Pop(&h)
		}
	}
	return nil
}

// tableIterAdapter bridges sstable.Iterator (whose SeekGE positions on the
// first entry) to the Next-first entryIter protocol.
type tableIterAdapter struct {
	it         *sstable.Iterator
	positioned bool
}

func (a *tableIterAdapter) Next() bool {
	if a.positioned {
		a.positioned = false
		return true
	}
	return a.it.Next()
}
func (a *tableIterAdapter) Key() []byte   { return a.it.Key() }
func (a *tableIterAdapter) Value() []byte { return a.it.Value() }
func (a *tableIterAdapter) Err() error    { return a.it.Err() }
