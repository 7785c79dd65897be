package postings

import (
	"bytes"
	"encoding/binary"
)

// Streaming merge over encoded fragments (DESIGN.md §5.6). The Lazy
// index's flush and compaction merges and its LOOKUP pooling all
// reduce to the same operation Merge performs on decoded lists — newest
// entry per primary key wins, optional tombstone elision — but paying a
// []Entry materialization per fragment on every call is exactly the
// ingestion overhead the paper attributes to the stand-alone indexes.
// MergeScratch performs the k-way merge directly from the encoded bytes:
// a well-formed fragment is newest first within itself, so walking all
// cursors in globally descending sequence order makes the first
// occurrence of each key the winner, and the output streams into a
// reused buffer without an intermediate slice. A fragment that breaks
// that order is corrupt and fails the merge, as a truncated one does.

// MergeScratch holds the reusable state of streaming merges: cursors,
// their heap and the per-key dedup set. The zero value is ready to use;
// a scratch is not safe for concurrent use.
type MergeScratch struct {
	cursors []Cursor
	heap    []int32 // mergeHeap's indices into cursors
	seen    KeySet

	entries int64
	bytes   int64
	merged  int64
	emitted int64
}

// EntriesDecoded returns the posting entries decoded by the last merge.
func (s *MergeScratch) EntriesDecoded() int64 { return s.entries }

// BytesDecoded returns the encoded bytes decoded by the last merge.
func (s *MergeScratch) BytesDecoded() int64 { return s.bytes }

// FragmentsMerged returns the fragment count of the last merge.
func (s *MergeScratch) FragmentsMerged() int64 { return s.merged }

// EntriesEmitted returns the surviving entry count of the last merge
// (compaction uses 0 to elide the key entirely).
func (s *MergeScratch) EntriesEmitted() int64 { return s.emitted }

// Merge combines encoded fragments ordered newest-fragment-first into one
// encoded list appended to dst (pass a reused buffer sliced to [:0]): per
// primary key only the newest entry survives; dropDeleted removes
// surviving deletion markers (bottom-level compaction). The output is
// v2-encoded, ordered newest first. Any ill-formed fragment, corrupt or
// out of newest-first order, fails the whole merge with ErrCorrupt (or
// the v1 decode error).
func (s *MergeScratch) Merge(dst []byte, fragments [][]byte, dropDeleted bool) ([]byte, error) {
	dst = append(dst, MagicV2)
	prev := uint64(0)
	err := s.MergeFunc(fragments, dropDeleted, func(key []byte, seq uint64, del bool) {
		dst, prev = appendEntry(dst, prev, key, seq, del)
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// MergeFunc is Merge without the re-encoding: emit is called once per
// surviving entry, in newest-first order. The key slice may alias a
// fragment's encoded bytes and is only valid during the call.
func (s *MergeScratch) MergeFunc(fragments [][]byte, dropDeleted bool, emit func(key []byte, seq uint64, del bool)) error {
	s.entries, s.bytes, s.merged, s.emitted = 0, 0, int64(len(fragments)), 0
	if err := s.primeCursors(fragments); err != nil {
		return err
	}
	s.seen.Reset()
	return s.mergeHeap(dropDeleted, emit)
}

// take hands c's current entry to emit unless an earlier entry decided
// its key.
func (s *MergeScratch) take(c *Cursor, dropDeleted bool, emit func(key []byte, seq uint64, del bool)) {
	key, seq, del := c.Key(), c.Seq(), c.Del()
	if s.seen.Insert(key) && !(dropDeleted && del) {
		s.emitted++
		emit(key, seq, del)
	}
}

// retire books an exhausted cursor's decode work.
func (s *MergeScratch) retire(c *Cursor) error {
	if err := c.Err(); err != nil {
		return err
	}
	s.entries += c.EntriesDecoded()
	s.bytes += c.BytesDecoded()
	return nil
}

// mergeHeap merges the primed cursors through a max-heap of cursor
// indices: the cursor with the highest current seq goes next, ties to the
// lower index, which is the earlier fragment. A flush hands it one
// fragment per blind PUT of a hot key, hundreds, where a linear max-scan
// over the cursors would be quadratic.
func (s *MergeScratch) mergeHeap(dropDeleted bool, emit func(key []byte, seq uint64, del bool)) error {
	h := s.heap[:0]
	for i := range s.cursors {
		h = append(h, int32(i))
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.siftDown(h, i)
	}
	for len(h) > 0 {
		c := &s.cursors[h[0]]
		s.take(c, dropDeleted, emit)
		if !c.Next() {
			if err := s.retire(c); err != nil {
				s.heap = h
				return err
			}
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		s.siftDown(h, 0)
	}
	s.heap = h
	return nil
}

// before is mergeHeap's order on cursor indices.
func (s *MergeScratch) before(a, b int32) bool {
	sa, sb := s.cursors[a].Seq(), s.cursors[b].Seq()
	return sa > sb || sa == sb && a < b
}

// siftDown moves h[i] down to its place in mergeHeap's heap h.
func (s *MergeScratch) siftDown(h []int32, i int) {
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

// primeCursors validates every fragment (well-formed, newest-first) and
// positions s.cursors on each fragment's first entry.
func (s *MergeScratch) primeCursors(fragments [][]byte) error {
	s.cursors = s.cursors[:0]
	for _, frag := range fragments {
		if len(s.cursors) == cap(s.cursors) {
			s.cursors = append(s.cursors, Cursor{})
		} else {
			s.cursors = s.cursors[:len(s.cursors)+1]
		}
		c := &s.cursors[len(s.cursors)-1]
		if err := c.Prime(frag); err != nil {
			return err
		}
		if !c.Next() {
			s.cursors = s.cursors[:len(s.cursors)-1] // empty fragment
		}
	}
	return nil
}

// KeySet is a per-call dedup set of byte-string keys: an open-addressing
// hash table whose keys live in one reusable byte arena. A
// map[string]struct{} would allocate one string per distinct key
// (`m[string(b)] = ...` always converts); the arena and table persist
// across Resets, so a warm set inserts without touching the heap. The
// merges here and the stand-alone lookups in internal/core dedupe primary
// keys through it. Call Reset before first use.
type KeySet struct {
	arena []byte   // inserted keys, concatenated
	ends  []uint32 // ends[i] = end offset of key i in arena (start = ends[i-1])
	tab   []int32  // 1-based index into ends; 0 = empty slot
}

// Reset empties the set, keeping its memory.
func (ks *KeySet) Reset() {
	ks.arena = ks.arena[:0]
	ks.ends = ks.ends[:0]
	if ks.tab == nil {
		ks.tab = make([]int32, 16)
	}
	clear(ks.tab)
}

func (ks *KeySet) key(i int32) []byte {
	start := uint32(0)
	if i > 0 {
		start = ks.ends[i-1]
	}
	return ks.arena[start:ks.ends[i]]
}

// Last returns the set's copy of the most recently inserted key. Later
// inserts only append to the arena, so the slice keeps its contents until
// the next Reset.
func (ks *KeySet) Last() []byte {
	return ks.key(int32(len(ks.ends) - 1))
}

//lsm:hotpath
func hashKey(b []byte) uint32 {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Insert reports whether key was absent, adding a copy of it if so.
//
//lsm:hotpath
func (ks *KeySet) Insert(key []byte) bool {
	if 4*(len(ks.ends)+1) > 3*len(ks.tab) {
		ks.grow()
	}
	mask := uint32(len(ks.tab) - 1)
	h := hashKey(key) & mask
	for {
		idx := ks.tab[h]
		if idx == 0 {
			ks.arena = append(ks.arena, key...)
			ks.ends = append(ks.ends, uint32(len(ks.arena)))
			ks.tab[h] = int32(len(ks.ends)) // 1-based
			return true
		}
		if bytes.Equal(ks.key(idx-1), key) {
			return false
		}
		h = (h + 1) & mask
	}
}

// grow doubles the table and rehashes from the arena (amortized; only
// this path allocates, and only until the scratch has seen its peak).
func (ks *KeySet) grow() {
	ks.tab = make([]int32, 2*len(ks.tab))
	mask := uint32(len(ks.tab) - 1)
	for i := range ks.ends {
		h := hashKey(ks.key(int32(i))) & mask
		for ks.tab[h] != 0 {
			h = (h + 1) & mask
		}
		ks.tab[h] = int32(i + 1)
	}
}

// AppendAdd re-encodes existing (either format; nil for a missing list)
// with a new posting for key prepended and any older entry for the same
// primary key removed — the Eager index's read-modify-write — appending
// the result to dst (pass a reused buffer sliced to [:0]) in v2. The
// stored list is already newest-first, so the update is a streaming
// prepend + dedup with no re-sort and, for v2 input with sufficient dst
// capacity, no heap allocation. decoded reports the entries read from
// existing (I/O accounting).
func AppendAdd(dst []byte, existing []byte, key string, seq uint64, del bool) (out []byte, decoded int64, err error) {
	var c Cursor
	if err := c.Reset(existing); err != nil {
		return nil, 0, err
	}
	dst = append(dst, MagicV2)
	u := uint64(len(key)) << 1
	if del {
		u |= 1
	}
	dst = binary.AppendUvarint(dst, u)
	dst = binary.AppendVarint(dst, int64(seq))
	dst = append(dst, key...)
	prev := seq
	for c.Next() {
		if string(c.Key()) == key {
			continue
		}
		dst, prev = appendEntry(dst, prev, c.Key(), c.Seq(), c.Del())
	}
	if err := c.Err(); err != nil {
		return nil, 0, err
	}
	return dst, c.EntriesDecoded(), nil
}
