// Package sstable implements LevelDB++'s on-disk table format (paper
// Appendix A.2 and Figure 3): data blocks holding sorted internal
// key/value entries, a block index carrying primary-key zone maps, a
// per-block primary bloom filter section, and — the Embedded index — a
// per-block bloom filter plus per-block and per-file zone maps for every
// indexed secondary attribute. All filters and maps are memory resident
// once a table is opened; disk is touched only for data blocks.
//
// Two block formats are read (DESIGN.md §5.2); only v2 is written. Format
// v1 (the seed) is a plain prefix-compressed entry stream, searchable only
// by linear scan. Format v2 adds LevelDB's restart array: every
// restartInterval-th entry is written with a full (non-shared) key, and
// the block ends with the byte offsets of those restart entries plus their
// count. Point reads and seeks binary-search the restart points and decode
// at most one interval.
package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"
	"sync"

	"leveldbpp/internal/ikey"
)

// Compression selects the per-block compression codec. The paper uses
// Snappy; we substitute DEFLATE at its fastest setting (see DESIGN.md §3),
// written by this package's deflater (byte for byte compress/flate's
// BestSpeed) and read by its inflater, and support disabling it (paper
// Appendix C.2).
type Compression uint8

const (
	// NoCompression stores blocks raw.
	NoCompression Compression = 0
	// FlateCompression compresses each block with DEFLATE (BestSpeed).
	FlateCompression Compression = 1
)

// restartInterval is the block restart spacing: one full (non-shared) key
// every this many entries (LevelDB's constant).
const restartInterval = 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockBuilder accumulates entries for one data block with LevelDB-style
// key prefix compression: each entry stores only the suffix of its key
// that differs from the previous entry's key.
// Entry wire format: varint(sharedLen) varint(unsharedLen) varint(valLen)
// unsharedKeyBytes value.
// Every restartInterval-th entry is stored with sharedLen 0 and its offset
// recorded; finish appends the restart offsets and their count — both
// big-endian uint32 — after the entries, inside the compressed/checksummed
// payload.
//
// A blockBuilder is reused for every block of a table: its buffers survive
// reset, so a block costs no allocation once they have grown to the block
// size. It holds no encoder: finish borrows one from deflaters for the
// call, so a builder dropped without Finish strands nothing.
type blockBuilder struct {
	buf          []byte // entries; finish appends the trailer in place
	prevKey      []byte
	count        int
	restarts     []uint32
	sinceRestart int

	cbuf []byte // the current block deflated
}

// sharedPrefixLen returns the length of the longest common prefix of a
// and b, comparing eight bytes at a time.
func sharedPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.sinceRestart%restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.sinceRestart = 0
	} else {
		shared = sharedPrefixLen(b.prevKey, key)
	}
	b.sinceRestart++
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.prevKey = append(b.prevKey[:0], key...)
	b.count++
}

// sizeEstimate includes the pending restart trailer so block cutting
// accounts for the real on-disk payload.
func (b *blockBuilder) sizeEstimate() int { return len(b.buf) + 4*len(b.restarts) + 4 }

func (b *blockBuilder) empty() bool { return b.count == 0 }

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.prevKey = b.prevKey[:0]
	b.count = 0
	b.restarts = b.restarts[:0]
	b.sinceRestart = 0
}

// finish returns the physical block: payload, a codec byte, and a CRC32C
// of payload+codec. The payload is entries + restart trailer; the CRC
// therefore covers the restart array too. The payload is compressed
// only when that actually shrinks it (LevelDB applies the same rule).
// The result is built in the builder's own buffers and is valid until the
// next reset.
//
//lsm:hotpath
func (b *blockBuilder) finish(c Compression) ([]byte, error) {
	if len(b.buf) > math.MaxUint32 {
		return nil, fmt.Errorf("sstable: block of %d bytes exceeds restart-offset range", len(b.buf))
	}
	for _, r := range b.restarts {
		b.buf = binary.BigEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	if c == FlateCompression {
		if b.cbuf = deflate(b.cbuf[:0], b.buf); len(b.cbuf) < len(b.buf) {
			b.cbuf = append(b.cbuf, byte(FlateCompression))
			b.cbuf = binary.BigEndian.AppendUint32(b.cbuf, crc32.Checksum(b.cbuf, crcTable))
			return b.cbuf, nil
		}
	}
	b.buf = append(b.buf, byte(NoCompression))
	b.buf = binary.BigEndian.AppendUint32(b.buf, crc32.Checksum(b.buf, crcTable))
	return b.buf, nil
}

// blockBuf is the pair of buffers one block load fills and the next one
// reuses: the physical block as the file holds it and, for a compressed
// block, its inflated payload.
type blockBuf struct{ phys, raw []byte }

// blockDecoder is the reusable state of the block load path: the
// inflater's Huffman tables, and the buffers of the loads whose caller
// keeps only a copy (everything but a compaction Iterator, which brings
// its own).
type blockDecoder struct {
	inf inflater
	buf blockBuf
}

var blockDecoders = sync.Pool{New: func() any { return new(blockDecoder) }}

// decodeBlock verifies the CRC of a physical block and returns its raw payload
// (entry stream, plus the restart trailer for v2 blocks) without copying
// it: a stored payload aliases phys, a compressed one is inflated into
// *scratch. The inflater keeps nothing from one block to the next, so a
// block that failed to inflate leaves nothing behind.
//
//lsm:hotpath
func (d *blockDecoder) decodeBlock(phys []byte, scratch *[]byte) ([]byte, error) {
	payload, codec, err := checkBlock(phys)
	if err != nil {
		return nil, err
	}
	return d.decodePayload(payload, codec, scratch)
}

// checkBlock verifies the CRC of a physical block and returns its payload,
// as the codec byte says it is stored.
func checkBlock(phys []byte) ([]byte, Compression, error) {
	if len(phys) < 5 {
		return nil, 0, fmt.Errorf("sstable: block too short (%d bytes)", len(phys))
	}
	body, crcBytes := phys[:len(phys)-4], phys[len(phys)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(crcBytes); got != want {
		return nil, 0, fmt.Errorf("sstable: block checksum mismatch: got %08x want %08x", got, want)
	}
	return body[:len(body)-1], Compression(body[len(body)-1]), nil
}

// decodePayload returns the raw payload of a checked block: payload
// itself when stored, else inflated whole into *scratch.
//
//lsm:hotpath
func (d *blockDecoder) decodePayload(payload []byte, codec Compression, scratch *[]byte) ([]byte, error) {
	switch codec {
	case NoCompression:
		return payload, nil
	case FlateCompression:
		raw, err := d.inf.inflate((*scratch)[:0], payload)
		*scratch = raw
		if err != nil {
			return nil, fmt.Errorf("sstable: flate decode: %w", err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("sstable: unknown block codec %d", codec)
	}
}

// prefixStep is how many more bytes each step of a point read's inflate
// decodes before the entries decoded so far are scanned again.
const prefixStep = 512

// inflateUntil inflates the compressed payload of a block into *scratch
// in steps, scanning the entries each step completes as a v1 stream, and
// stops at the first entry whose user key is at or after bound: found, with
// it positioned on that entry and *scratch ending at it. The bytes after
// it, including a v2 block's restart trailer, are not decoded. Otherwise,
// when the stream ends first or an entry is malformed, *scratch holds the
// whole payload for the caller's whole-block search, which reports what is
// wrong with it. An error is the inflater's.
//
//lsm:hotpath
func (it *BlockIter) inflateUntil(inf *inflater, payload []byte, scratch *[]byte, bound []byte) (found bool, err error) {
	it.initV1(nil)
	inf.start(0)
	raw := (*scratch)[:0]
	for done := false; !done; {
		if raw, done, err = inf.step(raw, payload, len(raw)+prefixStep); err != nil {
			break
		}
		it.data = raw
		for entryFits(raw, it.off) {
			if !it.Next() || !ikey.Valid(it.key) {
				raw, _, err = inf.step(raw, payload, math.MaxInt)
				*scratch = raw
				return false, err
			}
			if bytes.Compare(ikey.UserKey(it.key), bound) >= 0 {
				*scratch = raw[:it.off]
				return true, nil
			}
		}
	}
	*scratch = raw
	return false, err
}

// entryFits reports whether data holds the whole entry that starts at
// off, or a length varint at off too long for any entry, which Next
// reports as corruption.
func entryFits(data []byte, off int) bool {
	var l [3]uint64 // shared, unshared and value lengths
	for j := range l {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return n < 0
		}
		l[j] = v
		off += n
	}
	left := uint64(len(data) - off)
	return l[1] <= left && l[2] <= left-l[1]
}

// ownedCopy returns p in a slice of exactly its length that nothing else
// references: what a Get caller and the block cache keep, and what the
// cache charges for.
func ownedCopy(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// BlockIter walks the decoded entries of one block in order,
// reconstructing prefix-compressed keys. On v2 blocks SeekGE
// binary-searches the restart array instead of decoding from the start.
// An iterator may be re-initialised over successive blocks; its key
// buffer is retained across resets so steady-state iteration and point
// reads allocate nothing. Table.LoadBlock and a compaction Iterator also
// decode each block into the iterator's own buf.
type BlockIter struct {
	buf         blockBuf
	data        []byte // entry stream only (restart trailer stripped)
	restarts    []byte // 4 bytes per restart offset, big-endian
	numRestarts int
	off         int
	key         []byte
	val         []byte
	err         error
	decoded     int
}

// initV1 resets the iterator over a v1 payload: the whole payload is the
// entry stream and there are no restart points.
func (it *BlockIter) initV1(raw []byte) {
	it.data = raw
	it.restarts, it.numRestarts = nil, 0
	it.off = 0
	it.key = it.key[:0]
	it.val = nil
	it.err = nil
	it.decoded = 0
}

// initV2 resets the iterator over a v2 payload, splitting off and
// validating the restart trailer. A malformed trailer is reported as an
// error rather than risking out-of-range restart jumps later.
func (it *BlockIter) initV2(raw []byte) error {
	it.initV1(raw)
	if len(raw) == 0 { // an empty block has no trailer
		return nil
	}
	if len(raw) < 4 {
		return it.fail(fmt.Errorf("sstable: v2 block of %d bytes lacks a restart count", len(raw)))
	}
	n := int(binary.BigEndian.Uint32(raw[len(raw)-4:]))
	trailer := 4 + 4*n
	if n < 0 || trailer > len(raw) {
		return it.fail(fmt.Errorf("sstable: restart count %d exceeds block of %d bytes", n, len(raw)))
	}
	entriesEnd := len(raw) - trailer
	it.data = raw[:entriesEnd]
	it.restarts = raw[entriesEnd : len(raw)-4]
	it.numRestarts = n
	prev := -1
	for i := 0; i < n; i++ {
		off := int(binary.BigEndian.Uint32(it.restarts[4*i:]))
		if off >= entriesEnd || off <= prev {
			return it.fail(fmt.Errorf("sstable: restart offset %d (entry %d) outside entries [0,%d) or non-increasing", off, i, entriesEnd))
		}
		prev = off
	}
	return nil
}

func (it *BlockIter) fail(err error) error {
	it.err = err
	return err
}

// Next advances to the following entry, returning false at the end or on
// corruption (check Err).
//
//lsm:hotpath
func (it *BlockIter) Next() bool {
	if it.err != nil || it.off >= len(it.data) {
		return false
	}
	corrupt := func(what string) bool {
		it.err = fmt.Errorf("sstable: corrupt entry %s at offset %d", what, it.off)
		return false
	}
	shared, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		return corrupt("shared length")
	}
	it.off += n
	unshared, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		return corrupt("unshared length")
	}
	it.off += n
	vlen, n := binary.Uvarint(it.data[it.off:])
	if n <= 0 {
		return corrupt("value length")
	}
	it.off += n
	if shared > uint64(len(it.key)) {
		return corrupt("shared prefix exceeding previous key")
	}
	end := it.off + int(unshared) + int(vlen)
	if end > len(it.data) || int(unshared) < 0 || int(vlen) < 0 || end < it.off {
		it.err = fmt.Errorf("sstable: entry overruns block (end %d > %d)", end, len(it.data))
		return false
	}
	// Rebuild the key: keep the shared prefix of the previous key, append
	// the unshared suffix. it.key is always this iterator's own buffer.
	it.key = append(it.key[:shared], it.data[it.off:it.off+int(unshared)]...)
	it.val = it.data[it.off+int(unshared) : end]
	it.off = end
	it.decoded++
	return true
}

// restartKey decodes the full key stored at restart point i without
// touching the iterator's position or key buffer.
//
//lsm:hotpath
func (it *BlockIter) restartKey(i int) ([]byte, error) {
	off := int(binary.BigEndian.Uint32(it.restarts[4*i:]))
	shared, n := binary.Uvarint(it.data[off:])
	if n <= 0 || shared != 0 {
		return nil, fmt.Errorf("sstable: restart %d at offset %d has shared prefix %d", i, off, shared)
	}
	off += n
	unshared, n := binary.Uvarint(it.data[off:])
	if n <= 0 {
		return nil, fmt.Errorf("sstable: corrupt restart %d key length", i)
	}
	off += n
	_, n = binary.Uvarint(it.data[off:])
	if n <= 0 {
		return nil, fmt.Errorf("sstable: corrupt restart %d value length", i)
	}
	off += n
	end := off + int(unshared)
	if int(unshared) < 0 || end > len(it.data) || end < off {
		return nil, fmt.Errorf("sstable: restart %d key overruns block", i)
	}
	k := it.data[off:end]
	if !ikey.Valid(k) {
		return nil, fmt.Errorf("sstable: restart %d key too short (%d bytes)", i, len(k))
	}
	return k, nil
}

// SeekGE positions the iterator at the first entry with internal key >=
// target and returns true, or returns false when no such entry exists
// (or on corruption — check Err). On v2 blocks it binary-searches the
// restart points and linearly decodes at most one restart interval; v1
// blocks fall back to a linear scan from the block start.
//
//lsm:hotpath
func (it *BlockIter) SeekGE(target []byte) bool {
	if it.err != nil {
		return false
	}
	start := 0
	if it.numRestarts > 0 {
		// First restart whose (full) key is strictly greater than target;
		// the interval to scan starts at the restart before it.
		i := sort.Search(it.numRestarts, func(i int) bool {
			if it.err != nil {
				return true
			}
			k, err := it.restartKey(i)
			if err != nil {
				it.err = err
				return true
			}
			return ikey.Compare(k, target) > 0
		})
		if it.err != nil {
			return false
		}
		if i > 0 {
			start = int(binary.BigEndian.Uint32(it.restarts[4*(i-1):]))
		}
	}
	it.off = start
	it.key = it.key[:0]
	it.val = nil
	return it.nextGE(target)
}

// nextGE advances, from the entry after the current one, to the first
// entry with internal key >= target, as SeekGE's last step.
//
//lsm:hotpath
func (it *BlockIter) nextGE(target []byte) bool {
	for it.Next() {
		if !ikey.Valid(it.key) {
			it.err = fmt.Errorf("sstable: entry key too short (%d bytes) at offset %d", len(it.key), it.off)
			return false
		}
		if ikey.Compare(it.key, target) >= 0 {
			return true
		}
	}
	return false
}

// Err reports any corruption hit while iterating.
func (it *BlockIter) Err() error { return it.err }

// Key returns the current entry's internal key (valid until Next).
func (it *BlockIter) Key() []byte { return it.key }

// Value returns the current entry's value (valid until Next).
func (it *BlockIter) Value() []byte { return it.val }
