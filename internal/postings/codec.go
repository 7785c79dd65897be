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
// arithmetic, so arbitrary (even unsorted) lists round-trip exactly.
// There is no count header: a Cursor iterates until the buffer is
// exhausted, which is what lets AppendSingle emit a fragment and
// MergeStreams append entries without knowing the total up front.

// MagicV2 is the first byte of every v2-encoded posting list. A v1 JSON
// list always starts with '[' (0x5B), so a single-byte sniff
// distinguishes the formats.
const MagicV2 = 0x02

// ErrCorrupt reports a structurally invalid v2 posting list: a truncated
// varint, or a key length running past the buffer.
var ErrCorrupt = errors.New("postings: corrupt v2 posting list")

// appendEntry appends one v2 entry to dst and returns the extended buffer
// and the entry's sequence number (the caller's next prevSeq).
//
//lsm:hotpath
func appendEntry(dst []byte, prevSeq uint64, key []byte, seq uint64, del bool) ([]byte, uint64) {
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
		dst, prev = appendEntry(dst, prev, []byte(l[i].Key), l[i].Seq, l[i].Del)
	}
	return dst
}

// AppendSingle appends a one-entry fragment for key to dst — the fragment
// a Lazy-index PUT writes. With a dst of sufficient capacity the call
// performs zero heap allocations.
//
//lsm:hotpath
func AppendSingle(dst []byte, key string, seq uint64, del bool) []byte {
	dst = append(dst, MagicV2)
	u := uint64(len(key)) << 1
	if del {
		u |= 1
	}
	dst = binary.AppendUvarint(dst, u)
	dst = binary.AppendVarint(dst, int64(seq))
	return append(dst, key...)
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
// decodes the JSON up front (the seed cost) and Next replays it.
//
// A Cursor may be reused across lists via Reset; its internal buffers are
// retained. The encoded buffer must stay immutable while the cursor reads
// from it, and Key's result aliases that buffer (copy it to retain it
// past the iteration).
type Cursor struct {
	rest []byte // unread v2 bytes
	prev uint64 // previous entry's seq (delta base)

	list   List // decoded v1 entries (nil for v2 input)
	idx    int  // next v1 entry
	keyBuf []byte

	key []byte
	seq uint64
	del bool
	err error

	entries int64
	bytes   int64
}

// Reset points the cursor at a new encoded list. For v1 input the JSON is
// decoded immediately and its cost (allocations, full-list scan) is paid
// here; a decode failure is returned and also latched into Err.
func (c *Cursor) Reset(data []byte) error {
	c.rest = nil
	c.prev = 0
	c.list = nil
	c.idx = 0
	c.key = nil
	c.seq = 0
	c.del = false
	c.err = nil
	c.entries = 0
	c.bytes = 0
	if len(data) == 0 {
		return nil
	}
	if data[0] == MagicV2 {
		c.rest = data[1:]
		c.bytes = 1
		return nil
	}
	l, err := Decode(data)
	if err != nil {
		c.err = err
		return err
	}
	c.list = l
	c.bytes = int64(len(data))
	c.entries = int64(len(l)) // JSON decodes all-or-nothing
	if l == nil {
		c.list = List{} // non-nil sentinel: v1 mode with zero entries
	}
	return nil
}

// Prime is Reset plus a pre-walk of the whole list: it fails on a
// structurally corrupt list before the caller consumes any entry, and
// reports whether the entries are newest first (sequence numbers never
// increase), the order streaming merges rely on. The v2 walk reads the
// bytes without decoding entries, so it allocates nothing and leaves the
// cursor and its decode counters as Reset left them.
//
//lsm:hotpath
func (c *Cursor) Prime(data []byte) (sorted bool, err error) {
	if err := c.Reset(data); err != nil {
		return false, err
	}
	sorted = true
	if c.list != nil {
		// v1: the entries are already materialized; check order on them
		// rather than re-decoding the JSON.
		for i := 1; i < len(c.list); i++ {
			if c.list[i].Seq > c.list[i-1].Seq {
				sorted = false
			}
		}
		return sorted, nil
	}
	var prev uint64
	for rest, first := c.rest, true; len(rest) > 0; first = false {
		u, n := binary.Uvarint(rest)
		if n <= 0 {
			return false, ErrCorrupt
		}
		d, m := binary.Varint(rest[n:])
		if m <= 0 {
			return false, ErrCorrupt
		}
		rest = rest[n+m:]
		if u>>1 > uint64(len(rest)) {
			return false, ErrCorrupt
		}
		rest = rest[u>>1:]
		seq := prev + uint64(d)
		if !first && seq > prev {
			sorted = false
		}
		prev = seq
	}
	return sorted, nil
}

// Next advances to the next entry, reporting false at the end of the list
// or on corruption (check Err).
//
//lsm:hotpath
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.list != nil {
		if c.idx >= len(c.list) {
			return false
		}
		e := &c.list[c.idx]
		c.idx++
		c.keyBuf = append(c.keyBuf[:0], e.Key...)
		c.key, c.seq, c.del = c.keyBuf, e.Seq, e.Del
		return true
	}
	if len(c.rest) == 0 {
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

// Key returns the current entry's primary key. For v2 input it aliases
// the encoded buffer; copy to retain.
func (c *Cursor) Key() []byte { return c.key }

// Seq returns the current entry's sequence number.
func (c *Cursor) Seq() uint64 { return c.seq }

// Del reports whether the current entry is a deletion marker.
func (c *Cursor) Del() bool { return c.del }

// Err returns the corruption error that ended iteration, if any.
func (c *Cursor) Err() error { return c.err }

// EntriesDecoded returns the number of entries materialized since Reset:
// for v2 input, the consumed prefix only; for v1 input, the whole list
// (JSON decodes all-or-nothing at Reset).
func (c *Cursor) EntriesDecoded() int64 { return c.entries }

// BytesDecoded returns the encoded bytes consumed since Reset. v1 input
// charges the whole buffer at Reset (JSON decodes all-or-nothing); v2
// input is charged per entry, so early termination is visible here.
func (c *Cursor) BytesDecoded() int64 { return c.bytes }
