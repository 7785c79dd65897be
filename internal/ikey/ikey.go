// Package ikey defines the internal key encoding shared by the MemTable,
// SSTables and the LSM engine.
//
// An internal key is the user key followed by an 8-byte trailer packing a
// 56-bit sequence number and an 8-bit record kind, exactly LevelDB's
// scheme. The comparator orders by user key ascending, then by sequence
// number *descending*, so the newest version of a key is encountered first
// when scanning forward. Tombstones (KindDelete) participate in ordering
// like any other record.
package ikey

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind distinguishes live records from deletion tombstones.
type Kind uint8

const (
	// KindDelete marks a tombstone; the value is ignored.
	KindDelete Kind = 0
	// KindSet marks a live key/value record.
	KindSet Kind = 1
)

// MaxSeq is the largest representable sequence number (56 bits).
const MaxSeq = uint64(1)<<56 - 1

const trailerLen = 8

// Make encodes an internal key from its parts.
func Make(userKey []byte, seq uint64, kind Kind) []byte {
	ik := make([]byte, 0, len(userKey)+trailerLen)
	return AppendTrailer(append(ik, userKey...), seq, kind)
}

// AppendTrailer appends the 8-byte trailer that ends every internal key
// of (seq, kind) to dst and returns the extended slice.
func AppendTrailer(dst []byte, seq uint64, kind Kind) []byte {
	return binary.BigEndian.AppendUint64(dst, seq<<8|uint64(kind))
}

// SeekKey returns the internal key that sorts before every record of
// userKey, suitable as a lower bound for forward scans.
func SeekKey(userKey []byte) []byte { return Make(userKey, MaxSeq, KindSet) }

// AppendSeek appends SeekKey(userKey) to dst and returns the extended
// slice — the allocation-free variant for hot read paths that reuse a
// scratch buffer.
//
//lsm:hotpath
func AppendSeek(dst, userKey []byte) []byte {
	dst = append(dst, userKey...)
	return binary.BigEndian.AppendUint64(dst, MaxSeq<<8|uint64(KindSet))
}

// AppendSeekPast appends to dst the internal key that sorts after every
// record of userKey (sequence numbers start at 1) and before every record
// of a greater user key, and returns the extended slice: the target of a
// forward scan that skips userKey's remaining versions.
//
//lsm:hotpath
func AppendSeekPast(dst, userKey []byte) []byte {
	dst = append(dst, userKey...)
	return binary.BigEndian.AppendUint64(dst, 0)
}

// Valid reports whether ik is long enough to carry the 8-byte trailer;
// the accessors below panic on anything shorter, so untrusted inputs
// must be checked first.
func Valid(ik []byte) bool { return len(ik) >= trailerLen }

// UserKey extracts the user key portion. It panics on malformed keys.
//
//lsm:hotpath
func UserKey(ik []byte) []byte {
	if len(ik) < trailerLen {
		panic(fmt.Sprintf("ikey: malformed internal key of length %d", len(ik)))
	}
	return ik[:len(ik)-trailerLen]
}

// Seq extracts the sequence number.
//
//lsm:hotpath
func Seq(ik []byte) uint64 {
	return binary.BigEndian.Uint64(ik[len(ik)-trailerLen:]) >> 8
}

// KindOf extracts the record kind.
//
//lsm:hotpath
func KindOf(ik []byte) Kind {
	return Kind(ik[len(ik)-1])
}

// Compare orders internal keys: user key ascending, then sequence number
// descending, then kind descending. It is the comparator for every ordered
// structure in the engine.
//
//lsm:hotpath
func Compare(a, b []byte) int {
	ua, ub := UserKey(a), UserKey(b)
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	ta := binary.BigEndian.Uint64(a[len(a)-trailerLen:])
	tb := binary.BigEndian.Uint64(b[len(b)-trailerLen:])
	switch {
	case ta > tb:
		return -1 // higher seq (or kind) sorts first
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// String renders an internal key for debugging.
func String(ik []byte) string {
	if len(ik) < trailerLen {
		return fmt.Sprintf("corrupt(%x)", ik)
	}
	k := "SET"
	if KindOf(ik) == KindDelete {
		k = "DEL"
	}
	return fmt.Sprintf("%q@%d:%s", UserKey(ik), Seq(ik), k)
}
