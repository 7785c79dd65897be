package core

import (
	"bytes"
	"sort"

	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// candidateSource feeds collect, the one loop behind every Eager, Lazy and
// Composite LOOKUP and RANGELOOKUP (DESIGN.md §5.11): a fragmentHeap of
// posting cursors, or a compositeHeap of scanned composite keys. It yields
// the query's candidates newest first — the order a stable sort by seq
// descending of every decoded entry gives. key aliases source memory and
// is valid until the next call.
type candidateSource interface {
	next() (key []byte, seq uint64, del, ok bool)
	// finish books the source's decode work on q and reports the error
	// that ended the stream early, if any.
	finish(q *query) error
}

// query is one stand-alone LOOKUP/RANGELOOKUP.
type query struct {
	attr, lo, hi string
	k            int
	idx          *lsm.DB       // the attribute's index table
	phase        metrics.Phase // where the time between validations goes
	tr           *metrics.Trace
}

// collect runs q over src, one candidate and one validation at a time.
// The first occurrence of a primary key decides it, and a deletion marker
// only marks its key seen: any later version of the document wrote a
// newer index entry. The stream is newest first, so the top K are its
// first K valid candidates and the loop stops there. A primary key becomes
// a string only once it is valid.
//
//lsm:hotpath
func (db *DB) collect(src candidateSource, q *query) ([]Entry, error) {
	var seen postings.KeySet
	seen.Reset()
	var out []Entry
	var err error
	mark := q.tr.Now()
	for err == nil && (q.k <= 0 || len(out) < q.k) {
		key, seq, del, ok := src.next()
		if !ok {
			break
		}
		if !seen.Insert(key) || del {
			continue
		}
		q.tr.Since(q.phase, mark)
		pk := seen.Last()
		var doc []byte
		var valid bool
		if doc, valid, err = db.validate(pk, q.attr, q.lo, q.hi, q.tr); valid {
			out = append(out, Entry{Key: string(pk), Value: doc, Seq: seq}) //lsm:allocok the result
		}
		mark = q.tr.Now()
	}
	q.tr.Since(q.phase, mark)
	if serr := src.finish(q); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validate fetches the current record for primary key pk and reports
// whether its attr still lies in [lo, hi] — the staleness check every
// stand-alone lookup performs on each candidate (paper §4: "We make sure
// val(A_i) = a ... as there could be invalid keys ... caused by updates").
// Its whole cost is booked to the validate phase; the nested GET
// contributes I/O counters only (IOOnly), so its own probe phases cannot
// double-count inside the validate window. tr may be nil.
//
//lsm:hotpath
func (db *DB) validate(pk []byte, attr, lo, hi string, tr *metrics.Trace) ([]byte, bool, error) {
	t0 := tr.Now()
	tr.Count(metrics.CtrValidations, 1)
	tr.IOOnlyBegin()
	value, ok, err := db.primary.GetTraced(pk, tr)
	tr.IOOnlyEnd()
	valid := err == nil && ok && attrInRange(value, attr, lo, hi)
	tr.Since(metrics.PhaseValidate, t0)
	if !valid {
		return nil, false, err
	}
	return value, true, nil
}

// fragmentHeap is the posting kinds' source: a max-heap of cursors on
// posting-list fragments by current seq, ties to the earlier fragment (the
// newer stratum). Fragments are newest first within themselves, so the
// heap yields the global order while decoding only what is consumed.
// RANGELOOKUP builds it over every fragment or list in range. Point LOOKUP
// gives it fetch instead, one stratum's fragment at a time: a stratum is
// newer than every deeper one, so one cursor is queued at a time and the
// levels below the K-th valid result are never probed. Every fragment is
// primed (pre-walked) before use, so a corrupt one fails the query; one
// out of newest-first order sends it and every fragment not yet consumed
// to decodeAll.
type fragmentHeap struct {
	fetch  func() (frag []byte, ok bool, err error)
	tr     *metrics.Trace
	curs   []postings.Cursor
	h      []int32 // heap of indices into curs
	handed bool    // the top's current entry was handed out
	err    error
}

// newFragmentHeap is the RANGELOOKUP source over frags, which must stay
// unchanged while it is in use.
func newFragmentHeap(frags [][]byte, tr *metrics.Trace) (*fragmentHeap, error) {
	s := &fragmentHeap{tr: tr, curs: make([]postings.Cursor, 0, len(frags))}
	sorted := true
	for _, frag := range frags {
		ok, err := s.add(frag)
		if err != nil {
			return nil, err
		}
		sorted = sorted && ok
	}
	if !sorted {
		s.decodeAll()
	}
	heapify(s.h, s.before)
	return s, nil
}

// add primes a cursor on frag and, unless frag is empty, queues it on its
// first entry (the caller restores the heap order).
func (s *fragmentHeap) add(frag []byte) (sorted bool, err error) {
	s.curs = append(s.curs, postings.Cursor{})
	c := &s.curs[len(s.curs)-1]
	t0 := s.tr.Now()
	sorted, err = c.Prime(frag)
	s.tr.Since(metrics.PhasePostingsDecode, t0)
	if err == nil && c.Next() {
		s.h = append(s.h, int32(len(s.curs)-1))
	}
	return sorted, err
}

// pull opens the chain's next fragment. One that is out of order brings
// the rest of the chain with it, and the heap falls back to sorting.
func (s *fragmentHeap) pull() {
	frag, ok, err := s.fetch()
	if err == nil && ok {
		var sorted bool
		if sorted, err = s.add(frag); err == nil && sorted {
			return
		}
		for err == nil && ok {
			if frag, ok, err = s.fetch(); err == nil && ok {
				_, err = s.add(frag)
			}
		}
		if err == nil {
			s.decodeAll()
		}
	}
	s.err, s.fetch = err, nil
}

// decodeAll is the out-of-order fallback: it replaces the queued cursors
// with one on their entries stably sorted by seq descending, which is
// postings.Merge's order with a deterministic tie order.
func (s *fragmentHeap) decodeAll() {
	var all postings.List
	for _, ci := range s.h {
		c := &s.curs[ci]
		for ok := true; ok; ok = c.Next() {
			all = append(all, postings.Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seq > all[j].Seq })
	s.h = s.h[:0]
	_, _ = s.add(postings.AppendList(nil, all)) // a fresh v2 list: in order, well-formed
}

func (s *fragmentHeap) before(a, b int32) bool {
	sa, sb := s.curs[a].Seq(), s.curs[b].Seq()
	return sa > sb || sa == sb && a < b
}

//lsm:hotpath
func (s *fragmentHeap) next() ([]byte, uint64, bool, bool) {
	// Step past the entry handed out last only now, so its key stayed
	// valid until this call.
	if s.handed {
		s.handed = false
		if !s.curs[s.h[0]].Next() {
			last := len(s.h) - 1
			s.h[0] = s.h[last]
			s.h = s.h[:last]
		}
		siftDown(s.h, 0, s.before)
	}
	if len(s.h) == 0 && s.fetch != nil {
		s.pull()
	}
	if s.err != nil || len(s.h) == 0 {
		return nil, 0, false, false
	}
	s.handed = true
	c := &s.curs[s.h[0]]
	return c.Key(), c.Seq(), c.Del(), true
}

func (s *fragmentHeap) finish(q *query) error {
	frags := int64(len(s.curs))
	var entries, nbytes int64
	for i := range s.curs {
		entries += s.curs[i].EntriesDecoded()
		nbytes += s.curs[i].BytesDecoded()
	}
	q.tr.Count(metrics.CtrPostingFragments, frags)
	q.tr.Count(metrics.CtrPostingEntries, entries)
	st := q.idx.Stats()
	st.PostingsBytesDecoded.Add(nbytes)
	st.PostingsEntriesDecoded.Add(entries)
	st.FragmentsMerged.Add(frags)
	return s.err
}

// compositeHeap is Composite's source: the (primary key, seq) of every
// composite key the prefix scan visits, the keys copied into one arena and
// the pairs heapified by seq in O(n); the loop pops only what validation
// consumes.
type compositeHeap struct {
	arena []byte
	h     []compositeCand
}

type compositeCand struct {
	start, end int
	seq        uint64
}

// add records the composite key ck (attribute value ∥ 0x00 ∥ primary key)
// if its attribute value lies in [lo, hi].
func (s *compositeHeap) add(ck []byte, lo, hi string, seq uint64) bool {
	i := bytes.IndexByte(ck, compositeSep)
	if i < 0 || string(ck[:i]) < lo || string(ck[:i]) > hi {
		return false
	}
	start := len(s.arena)
	s.arena = append(s.arena, ck[i+1:]...)
	s.h = append(s.h, compositeCand{start: start, end: len(s.arena), seq: seq})
	return true
}

func newerComposite(a, b compositeCand) bool { return a.seq > b.seq }

//lsm:hotpath
func (s *compositeHeap) next() ([]byte, uint64, bool, bool) {
	if len(s.h) == 0 {
		return nil, 0, false, false
	}
	top := s.h[0]
	last := len(s.h) - 1
	s.h[0] = s.h[last]
	s.h = s.h[:last]
	siftDown(s.h, 0, newerComposite)
	return s.arena[top.start:top.end], top.seq, false, true
}

func (s *compositeHeap) finish(*query) error { return nil }

// heapify orders h into a heap whose root is the element no other is
// before, in O(len(h)).
func heapify[T any](h []T, before func(a, b T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, before)
	}
}

// siftDown moves h[i] down to its place in the heap h.
//
//lsm:hotpath
func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// collectFragments runs a posting kind's RANGELOOKUP over the fragments
// its scan gathered.
func (db *DB) collectFragments(frags [][]byte, idx *lsm.DB, attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	t0 := tr.Now()
	src, err := newFragmentHeap(frags, tr)
	tr.Since(metrics.PhasePostingMerge, t0)
	if err != nil {
		return nil, err
	}
	return db.collect(src, &query{attr: attr, lo: lo, hi: hi, k: k, idx: idx, phase: metrics.PhasePostingMerge, tr: tr})
}
