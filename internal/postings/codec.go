package postings

import (
	"encoding/binary"
	"errors"
)

// Format v2 layout (DESIGN.md §5.6):
//
//	list  := MagicV2 entry*
//	entry := uvarint(len(key)<<1 | del) varint(seq - prevSeq) key-bytes
//
// Sequence numbers are delta-encoded against the previous entry (prevSeq
// starts at 0) with zig-zag varints, so the newest-first invariant — each
// next entry older by a handful of sequence numbers — costs one or two
// bytes per entry instead of a JSON object. Deltas use wrap-around uint64
// arithmetic, so Decode round-trips any seq sequence exactly; but a list
// whose seqs rise is not well-formed, and Cursor.Prime rejects it.
// There is no count header: a Cursor iterates until the buffer is
// exhausted, which is what lets AppendSingle emit a fragment and a merge
// append entries (AppendEntry) without knowing the total up front.

// MagicV2 is the first byte of every v2-encoded posting list. A v1 JSON
// list always starts with '[' (0x5B), so a single-byte sniff
// distinguishes the formats.
const MagicV2 = 0x02

// ErrCorrupt reports an ill-formed posting list: a truncated varint, a
// key length running past the buffer, or (found by Cursor.Prime) a
// sequence number that rises, breaking newest-first order.
var ErrCorrupt = errors.New("postings: corrupt posting list")

// AppendEntry appends one v2 entry to dst and returns the extended buffer
// and the entry's sequence number (the caller's next prevSeq). A list is
// MagicV2 followed by its entries appended newest first, prevSeq starting
// at 0; every writer of the package and the Lazy merger write through it.
//
//lsm:hotpath
func AppendEntry[K string | []byte](dst []byte, prevSeq uint64, key K, seq uint64, del bool) ([]byte, uint64) {
	u := uint64(len(key)) << 1
	if del {
		u |= 1
	}
	dst = binary.AppendUvarint(dst, u)
	dst = binary.AppendVarint(dst, int64(seq-prevSeq))
	dst = append(dst, key...)
	return dst, seq
}

// AppendList appends the v2 encoding of l to dst.
func AppendList(dst []byte, l List) []byte {
	dst = append(dst, MagicV2)
	prev := uint64(0)
	for i := range l {
		dst, prev = AppendEntry(dst, prev, l[i].Key, l[i].Seq, l[i].Del)
	}
	return dst
}

// AppendSingle appends a one-entry fragment for key to dst — the fragment
// a Lazy-index PUT writes. With a dst of sufficient capacity the call
// performs zero heap allocations.
//
//lsm:hotpath
func AppendSingle(dst []byte, key string, seq uint64, del bool) []byte {
	dst, _ = AppendEntry(append(dst, MagicV2), 0, key, seq, del)
	return dst
}

// decodeV2 materializes a v2 list (Decode's slow path; hot readers use a
// Cursor instead).
func decodeV2(data []byte) (List, error) {
	var c Cursor
	if err := c.Reset(data); err != nil {
		return nil, err
	}
	var l List
	for c.Next() {
		l = append(l, Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// Cursor iterates a posting list in place over its encoded bytes. For v2
// input, Key returns a sub-slice of the encoded buffer and Next performs
// no heap allocation, so a LOOKUP that stops after K entries never
// decodes — or pays for — the tail of the list. For v1 input, Reset
// decodes the JSON once (the seed cost) and re-encodes it as v2 into a
// buffer the cursor owns, which Next then reads like any v2 list.
//
// A Cursor may be reused across lists via Reset; its internal buffers are
// retained. The encoded buffer must stay immutable while the cursor reads
// from it, and Key's result aliases that buffer (copy it to retain it
// past the iteration).
type Cursor struct {
	rest []byte // unread v2 bytes
	prev uint64 // previous entry's seq (delta base)
	v1   []byte // v2 re-encoding of a v1 list

	key []byte
	seq uint64
	del bool
	err error

	entries int64
	bytes   int64
}

// Reset points the cursor at a new encoded list. A v1 list is decoded
// and re-encoded here; a decode failure is returned and also latched
// into Err.
func (c *Cursor) Reset(data []byte) error {
	*c = Cursor{v1: c.v1[:0]}
	if len(data) == 0 {
		return nil
	}
	if data[0] != MagicV2 {
		l, err := Decode(data)
		if err != nil {
			c.err = err
			return err
		}
		c.v1 = AppendList(c.v1, l)
		data = c.v1
	}
	c.rest = data[1:]
	c.bytes = 1
	return nil
}

// Prime is Reset plus a pre-walk of the whole list: it fails with
// ErrCorrupt on a list that is structurally corrupt or whose sequence
// numbers rise anywhere (a well-formed list is newest first, the order
// every reader relies on) before the caller consumes any entry. The walk
// reads the bytes without decoding entries, so it allocates nothing and
// leaves the cursor and its decode counters as Reset left them.
//
//lsm:hotpath
func (c *Cursor) Prime(data []byte) error {
	if err := c.Reset(data); err != nil {
		return err
	}
	var prev uint64
	for rest, first := c.rest, true; len(rest) > 0; first = false {
		u, n := binary.Uvarint(rest)
		if n <= 0 {
			return ErrCorrupt
		}
		d, m := binary.Varint(rest[n:])
		if m <= 0 {
			return ErrCorrupt
		}
		rest = rest[n+m:]
		if u>>1 > uint64(len(rest)) {
			return ErrCorrupt
		}
		rest = rest[u>>1:]
		seq := prev + uint64(d)
		if !first && seq > prev {
			return ErrCorrupt
		}
		prev = seq
	}
	return nil
}

// Next advances to the next entry, reporting false at the end of the list
// or on corruption (check Err).
//
//lsm:hotpath
func (c *Cursor) Next() bool {
	if c.err != nil || len(c.rest) == 0 {
		return false
	}
	u, n := binary.Uvarint(c.rest)
	if n <= 0 {
		c.err = ErrCorrupt
		return false
	}
	d, m := binary.Varint(c.rest[n:])
	if m <= 0 {
		c.err = ErrCorrupt
		return false
	}
	hdr := n + m
	keyLen := u >> 1
	if keyLen > uint64(len(c.rest)-hdr) {
		c.err = ErrCorrupt
		return false
	}
	end := hdr + int(keyLen)
	c.key = c.rest[hdr:end:end]
	c.del = u&1 != 0
	c.seq = c.prev + uint64(d)
	c.prev = c.seq
	c.rest = c.rest[end:]
	c.entries++
	c.bytes += int64(end)
	return true
}

// Key returns the current entry's primary key. It aliases the encoded
// buffer (for v1 input, the cursor's re-encoding); copy to retain.
func (c *Cursor) Key() []byte { return c.key }

// Seq returns the current entry's sequence number.
func (c *Cursor) Seq() uint64 { return c.seq }

// Del reports whether the current entry is a deletion marker.
func (c *Cursor) Del() bool { return c.del }

// Err returns the corruption error that ended iteration, if any.
func (c *Cursor) Err() error { return c.err }

// EntriesDecoded returns the number of entries consumed since Reset, so
// early termination is visible here. A v1 list is charged like the v2
// list it was re-encoded as.
func (c *Cursor) EntriesDecoded() int64 { return c.entries }

// BytesDecoded returns the v2 bytes consumed since Reset (for v1 input,
// of its re-encoding), charged per entry like EntriesDecoded.
func (c *Cursor) BytesDecoded() int64 { return c.bytes }

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
	dst, prev := AppendEntry(append(dst, MagicV2), 0, key, seq, del)
	for c.Next() {
		if string(c.Key()) == key {
			continue
		}
		dst, prev = AppendEntry(dst, prev, c.Key(), c.Seq(), c.Del())
	}
	if err := c.Err(); err != nil {
		return nil, 0, err
	}
	return dst, c.EntriesDecoded(), nil
}
