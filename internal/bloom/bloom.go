// Package bloom implements the Bloom filter used throughout LevelDB++ for
// primary-key filtering and for the Embedded secondary index (paper
// Appendix A.3).
//
// The filter follows the classic double-hashing construction used by
// LevelDB: a single 64-bit base hash is split and advanced by a delta for
// each of the k probes, which is statistically close to k independent hash
// functions (Kirsch & Mitzenmacher).
//
// Given bitsPerKey m/|S|, the optimal number of probes is
// k = (m/|S|)·ln2 and the minimal false-positive rate is 2^(−(m/|S|)·ln2)
// (paper Equation 1).
package bloom

import (
	"encoding/binary"
	"math"
)

// Filter is an immutable encoded Bloom filter. The final byte stores the
// number of probe functions k, the rest is the bit array. An empty Filter
// matches nothing.
type Filter []byte

// maxProbes caps k; beyond 30 probes the CPU cost dominates with no
// meaningful FP-rate gain.
const maxProbes = 30

// NumProbes returns the optimal probe count for the given bits-per-key
// budget: k = b·ln2, clamped to [1, 30].
func NumProbes(bitsPerKey int) int {
	k := int(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > maxProbes {
		k = maxProbes
	}
	return k
}

// FalsePositiveRate returns the expected false-positive probability of a
// filter built with bitsPerKey bits per key and the optimal probe count
// (paper Equation 1 at the optimum: 2^(−bitsPerKey·ln2)).
func FalsePositiveRate(bitsPerKey int) float64 {
	return math.Pow(2, -float64(bitsPerKey)*math.Ln2)
}

// Build constructs a Filter over the given keys with the requested
// bits-per-key budget. Duplicate keys are harmless. A nil or empty key set
// yields a minimal filter that still answers MayContain correctly (false
// for everything is not guaranteed by Bloom semantics, but an empty set
// yields an all-zero bit array, so MayContain is false for all keys).
func Build(keys [][]byte, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := NumProbes(bitsPerKey)

	bits := len(keys) * bitsPerKey
	// Small filters see high FP rates from rounding; LevelDB enforces a
	// 64-bit floor.
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8

	f := make(Filter, nBytes+1)
	f[nBytes] = byte(k)
	for _, key := range keys {
		h := Hash(key)
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			pos := h % uint64(bits)
			f[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return f
}

// MayContain reports whether key may be in the set the filter was built
// from. False means definitely absent; true may be a false positive.
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	bits := uint64((len(f) - 1) * 8)
	k := int(f[len(f)-1])
	if k > maxProbes {
		// Reserved for future encodings; treat as always-match so newer
		// files degrade to scans instead of missing data.
		return true
	}
	h := Hash(key)
	delta := h>>33 | h<<31
	for i := 0; i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is a 64-bit FNV-1a-style hash with extra avalanche mixing, shared by
// the filter builder and prober. It is exported so table readers can reuse
// it for hash-sharded structures.
func Hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(key) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(key)) * prime64
		key = key[8:]
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	// fmix64 finalizer from MurmurHash3 for avalanche.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
