package core

import (
	"bytes"
	"sync"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/skiplist"
)

// candidateSource feeds collect, the one loop behind every Eager, Lazy and
// Composite LOOKUP and RANGELOOKUP (DESIGN.md §5.11): a fragmentHeap of
// posting cursors, or a compositeSource of composite keys. It yields
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

// maxChunk bounds a chunk of candidates when K does not.
const maxChunk = 64

// chunk is the fixed-size scratch of one batch of undecided candidates:
// their primary keys and seqs in stream order, the permutation that sorts
// them by key, and what validation found for each.
type chunk struct {
	n      int
	keys   [maxChunk][]byte
	seqs   [maxChunk]uint64
	order  [maxChunk]uint8
	sorted [maxChunk][]byte // keys in key order
	docs   [maxChunk][]byte
	valid  [maxChunk]bool
}

// chunkPool holds zeroed chunks for collect. A chunk is over 5 KiB. On
// collect's stack its cost depended on the caller's stack depth: on a
// 2-core Xeon box, a caller frame 16 bytes smaller made Composite
// RANGELOOKUP about 30 % slower. From the pool its address does not
// depend on the caller.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// collect runs q over src one chunk of candidates at a time. The first
// occurrence of a primary key decides it, and a deletion marker only marks
// its key seen: any later version of the document wrote a newer index
// entry. A chunk holds the next undecided candidates, no more than the
// results still missing (and maxChunk), so it never reaches past the K-th
// valid one. The stream is newest first, so the top K are its first K
// valid candidates and the loop stops there. A primary key becomes a
// string only once it is valid.
//
//lsm:hotpath
func (db *DB) collect(src candidateSource, q *query) ([]Entry, error) {
	var seen postings.KeySet
	seen.Reset()
	c := chunkPool.Get().(*chunk)
	defer func() {
		*c = chunk{} // drop the references to keys and documents
		chunkPool.Put(c)
	}()
	var out []Entry
	var err error
	more := true
	q.tr.Enter(q.phase)
	for more && err == nil && (q.k <= 0 || len(out) < q.k) {
		size := maxChunk
		if q.k > 0 {
			size = min(size, q.k-len(out))
		}
		for c.n = 0; c.n < size; {
			key, seq, del, ok := src.next()
			if !ok {
				more = false
				break
			}
			if seen.Insert(key) && !del {
				c.keys[c.n], c.seqs[c.n] = seen.Last(), seq
				c.n++
			}
		}
		if c.n == 0 {
			break
		}
		err = db.validate(c, q)
		for i := 0; i < c.n && err == nil; i++ {
			if c.valid[i] {
				out = append(out, Entry{Key: string(c.keys[i]), Value: c.docs[i], Seq: c.seqs[i]}) //lsm:allocok the result
			}
		}
		q.tr.Enter(q.phase)
	}
	if serr := src.finish(q); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validate fetches the current record of every candidate in c and marks
// those whose attr still lies in [lo, hi] — the staleness check every
// stand-alone lookup performs on each candidate (paper §4: "We make sure
// val(A_i) = a ... as there could be invalid keys ... caused by updates").
// The keys are read in primary-key order through one batch read, so
// candidates that share a primary block share its read. Its whole cost is
// booked to the validate phase; the nested GETs contribute I/O counters
// only (IOOnly), so their own probe phases cannot double-count inside the
// validate window.
//
//lsm:hotpath
func (db *DB) validate(c *chunk, q *query) error {
	q.tr.Enter(metrics.PhaseValidate)
	q.tr.Count(metrics.CtrValidations, int64(c.n))
	// Insertion sort: a chunk is at most maxChunk long.
	for i := 0; i < c.n; i++ {
		j := i
		for ; j > 0 && bytes.Compare(c.keys[c.order[j-1]], c.keys[i]) > 0; j-- {
			c.order[j] = c.order[j-1]
		}
		c.order[j] = uint8(i)
	}
	for i := 0; i < c.n; i++ {
		c.sorted[i] = c.keys[c.order[i]]
	}
	q.tr.IOOnlyBegin()
	err := db.primary.GetSorted(c.sorted[:c.n], q.tr, func(i int, value []byte, ok bool) {
		j := c.order[i]
		c.valid[j] = ok && attrInRange(value, q.attr, q.lo, q.hi)
		c.docs[j] = value
	})
	q.tr.IOOnlyEnd()
	return err
}

// fragmentHeap is the one k-way merge of posting-list fragments: a
// max-heap of cursors by current seq, ties to the earlier fragment.
// Fragments are newest first within themselves, so the heap yields the
// global order while decoding only what is consumed. It is the posting
// kinds' candidateSource, and lazyMerger drains it at flush and
// compaction (load). A Lazy MemTable holds a secondary key's versions
// newest first, each newer than the next, so one cursor reads them all:
// when a version ends, the cursor moves on to the key's next older
// version (its chain). Its feed queues fragments only when they may be
// needed: point LOOKUP's chain one stratum at a time once the heap runs
// dry, RANGELOOKUP's units once the top is older than their bound. Every fragment is primed (pre-walked) before
// use, so an ill-formed one, corrupt or out of newest-first order, fails
// the query or the merge with postings.ErrCorrupt.
type fragmentHeap struct {
	feed   fragmentFeed // nil once drained
	tr     *metrics.Trace
	curs   []cursor
	h      []int32    // heap of indices into curs
	frags  []fragment // fetch scratch
	handed bool       // the top's current entry was handed out
	err    error

	primed          int64 // fragments primed, chained versions included
	entries, nbytes int64 // decode work of the fragments cursors left
}

// fragment is one posting list a fragmentFeed hands over and, for a Lazy
// MemTable version, the chain of its key's older versions.
type fragment struct {
	data  []byte
	chain memChain
}

// memChain walks one secondary key's versions in a Lazy index MemTable,
// newest first. It sits on the version being read; the zero value is a
// chain with no older version.
type memChain struct {
	it skiplist.Iterator
}

// older moves to the key's next older version and returns its fragment.
// ok is false at the chain's end: past the key's oldest version, or at a
// tombstone, which hides every version below it. The fragment aliases
// MemTable arena memory, which is never reused.
func (c *memChain) older() (data []byte, ok bool) {
	if !c.it.Valid() {
		return nil, false
	}
	uk := ikey.UserKey(c.it.Key())
	c.it.Next()
	if c.it.Valid() {
		if ik := c.it.Key(); ikey.KindOf(ik) == ikey.KindSet && bytes.Equal(ikey.UserKey(ik), uk) {
			return c.it.Value(), true //lsm:aliasok arena memory, never reused
		}
	}
	c.it = skiplist.Iterator{}
	return nil, false
}

// cursor is a fragmentHeap cursor: a posting cursor on the fragment being
// read, and the chain it moves on to when that fragment ends.
type cursor struct {
	postings.Cursor
	chain memChain
}

// fragmentFeed hands a fragmentHeap the fragments it has not queued yet,
// a group at a time: a stratum's fragment of one secondary key (point
// LOOKUP's lazyStrata) or a unit's in-range fragments (postingUnits).
type fragmentFeed interface {
	// due reports whether the next group may hold an entry newer than top,
	// the seq of the heap's top entry, or, when empty, whether the heap
	// needs the next group at all.
	due(top uint64, empty bool) bool
	// fetch appends the next group's fragments to dst; ok is false once
	// the feed is exhausted.
	fetch(dst []fragment) (frags []fragment, ok bool, err error)
}

// heapPool recycles fragmentHeaps with their cursor, heap and fetch
// arrays: a RANGELOOKUP may queue hundreds of fragments, and growing
// fresh arrays for every query cost a fifth of its time.
var heapPool = sync.Pool{New: func() any { return new(fragmentHeap) }}

// maxPooledCursors bounds the cursor array a finished heap keeps. A
// pooled heap holds its arrays, 144 B per cursor, until the GC empties
// the pool; past 1024 cursors (~150 KiB) a rare RANGELOOKUP over
// thousands of fragments drops its heap instead of pinning that much
// memory in every P's pool slot.
const maxPooledCursors = 1024

// newFeedHeap is a pooled source over feed; finish returns it to the
// pool.
func newFeedHeap(feed fragmentFeed, tr *metrics.Trace) *fragmentHeap {
	s := heapPool.Get().(*fragmentHeap)
	s.feed, s.tr = feed, tr
	return s
}

// release empties s, dropping its references to fragment memory, and
// returns it to the pool with its arrays.
func (s *fragmentHeap) release() {
	if cap(s.curs) > maxPooledCursors {
		return
	}
	clear(s.curs)
	clear(s.frags[:cap(s.frags)])
	*s = fragmentHeap{curs: s.curs[:0], h: s.h[:0], frags: s.frags[:0]}
	heapPool.Put(s)
}

// newFragmentHeap is the source over the fragments of one fetch — Eager
// LOOKUP's list — which must stay unchanged while it is in use.
func newFragmentHeap(frags [][]byte, tr *metrics.Trace) (*fragmentHeap, error) {
	s := newFeedHeap(nil, tr)
	for _, frag := range frags {
		if err := s.add(fragment{data: frag}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// add primes a cursor on f and, unless f and its chain are empty, pushes
// it on its first entry.
func (s *fragmentHeap) add(f fragment) error {
	s.curs = append(s.curs, cursor{chain: f.chain})
	c := &s.curs[len(s.curs)-1]
	if err := s.prime(c, f.data); err != nil {
		return err
	}
	ok, err := s.advance(c)
	if err == nil && ok {
		s.h = append(s.h, int32(len(s.curs)-1))
		s.up(len(s.h) - 1)
	}
	return err
}

// load makes s the heap over values, one key's fragments newest first,
// keeping s's arrays and its cursors' v1 buffers from the last load. Every
// fragment is known up front, so it builds the heap bottom-up.
func (s *fragmentHeap) load(values [][]byte) error {
	*s = fragmentHeap{curs: s.curs[:0], h: s.h[:0]}
	for _, v := range values {
		if len(s.curs) < cap(s.curs) {
			s.curs = s.curs[:len(s.curs)+1]
		} else {
			s.curs = append(s.curs, cursor{})
		}
		c := &s.curs[len(s.curs)-1]
		if err := c.Prime(v); err != nil {
			return err
		}
		if c.Next() {
			s.h = append(s.h, int32(len(s.curs)-1))
		}
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	return nil
}

// prime points c at data, booking the decode work of the fragment it
// leaves.
func (s *fragmentHeap) prime(c *cursor, data []byte) error {
	s.entries += c.EntriesDecoded()
	s.nbytes += c.BytesDecoded()
	s.primed++
	t0 := s.tr.Now()
	err := c.Prime(data)
	s.tr.Since(metrics.PhasePostingsDecode, t0)
	return err
}

// advance moves c to its next entry, moving on to the chain's older
// versions as each one ends; ok is false once c and its chain are
// exhausted.
func (s *fragmentHeap) advance(c *cursor) (ok bool, err error) {
	for !c.Next() {
		if !c.chain.it.Valid() { // no older version: spare the call
			return false, nil
		}
		data, more := c.chain.older()
		if !more {
			return false, nil
		}
		if err := s.prime(c, data); err != nil {
			return false, err
		}
	}
	return true, nil
}

// pull queues the feed's next group.
func (s *fragmentHeap) pull() {
	frags, ok, err := s.feed.fetch(s.frags[:0])
	s.frags = frags
	for i := 0; err == nil && ok && i < len(frags); i++ {
		err = s.add(frags[i])
	}
	if err != nil || !ok {
		s.err, s.feed = err, nil
	}
}

// topSeq is the seq of the top's current entry, 0 for an empty heap.
func (s *fragmentHeap) topSeq() uint64 {
	if len(s.h) == 0 {
		return 0
	}
	return s.curs[s.h[0]].Seq()
}

// before is the heap's order on cursor indices: the higher current seq
// first, ties to the earlier fragment.
func (s *fragmentHeap) before(a, b int32) bool {
	sa, sb := s.curs[a].Seq(), s.curs[b].Seq()
	return sa > sb || sa == sb && a < b
}

// up moves h[i] up to its place in the heap.
func (s *fragmentHeap) up(i int) {
	h := s.h
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down moves h[i] down to its place in the heap.
//
//lsm:hotpath
func (s *fragmentHeap) down(i int) {
	h := s.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && s.before(h[r], h[c]) {
			c = r
		}
		if !s.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

//lsm:hotpath
func (s *fragmentHeap) next() ([]byte, uint64, bool, bool) {
	// Step past the entry handed out last only now, so its key stayed
	// valid until this call.
	if s.handed {
		s.handed = false
		ok, err := s.advance(&s.curs[s.h[0]])
		if err != nil {
			s.err, s.feed = err, nil
			return nil, 0, false, false
		}
		if !ok {
			last := len(s.h) - 1
			s.h[0] = s.h[last]
			s.h = s.h[:last]
		}
		s.down(0)
	}
	for s.feed != nil && s.feed.due(s.topSeq(), len(s.h) == 0) {
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
	entries, nbytes := s.entries, s.nbytes
	for i := range s.curs {
		entries += s.curs[i].EntriesDecoded()
		nbytes += s.curs[i].BytesDecoded()
	}
	q.tr.Count(metrics.CtrPostingFragments, s.primed)
	q.tr.Count(metrics.CtrPostingEntries, entries)
	st := q.idx.Counters()
	st.PostingsBytesDecoded.Add(nbytes)
	st.PostingsEntriesDecoded.Add(entries)
	st.FragmentsMerged.Add(s.primed)
	err := s.err
	s.release()
	return err
}

// siftUp moves h[i] up to its place in the heap h.
func siftUp[T any](h []T, i int, before func(a, b T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
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
