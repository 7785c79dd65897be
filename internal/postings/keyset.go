package postings

import "bytes"

// KeySet is a per-call dedup set of byte-string keys: an open-addressing
// hash table whose keys live in one reusable byte arena. A
// map[string]struct{} would allocate one string per distinct key
// (`m[string(b)] = ...` always converts); the arena and table persist
// across Resets, so a warm set inserts without touching the heap. The
// posting merges and stand-alone lookups in internal/core (the Lazy
// merger at flush and compaction, collect at LOOKUP) dedupe primary keys
// through it. Call Reset before first use.
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
