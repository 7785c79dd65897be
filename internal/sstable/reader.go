package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"leveldbpp/internal/bloom"
	"leveldbpp/internal/cache"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// tableIDCounter assigns each opened table a process-unique ID for block
// cache keys; compaction outputs therefore never alias the cached blocks
// of the tables they replace.
var tableIDCounter atomic.Uint64

// Table is an open SSTable. All metadata — the block index (primary zone
// maps), primary bloom filters, secondary bloom filters and zone maps — is
// memory resident; only data block reads touch r.
type Table struct {
	r          io.ReaderAt
	id         uint64
	format     int // formatV1: linear blocks; formatV2: restart arrays
	blocks     []blockMeta
	attrs      map[string]*secAttrMeta
	entryCount int
	maxSeq     uint64
	blockSeqs  bool // the meta records each block's max seq (version 2)
	stats      *metrics.IOStats
	cache      *cache.Cache
}

// OpenTable parses the footer and meta section of a table of the given
// size. With nil stats the table counts into an IOStats of its own.
func OpenTable(r io.ReaderAt, size int64, stats *metrics.IOStats) (*Table, error) {
	return OpenTableCached(r, size, stats, nil)
}

// OpenTableCached is OpenTable with an optional shared block cache
// (LevelDB's block cache; the paper's experiments run without one).
func OpenTableCached(r io.ReaderAt, size int64, stats *metrics.IOStats, blockCache *cache.Cache) (*Table, error) {
	if size < footerLen {
		return nil, fmt.Errorf("sstable: file too small (%d bytes)", size)
	}
	// Sniff the trailing magic to pick the footer layout: the seed's
	// 24-byte v1 footer, or the 25-byte v2 footer carrying a
	// format-version byte (restart-point blocks).
	flen := int64(footerLen)
	if size >= footerLenV2 {
		flen = footerLenV2
	}
	var fbuf [footerLenV2]byte
	footer := fbuf[footerLenV2-flen:]
	if _, err := r.ReadAt(footer, size-flen); err != nil {
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	format := formatV1
	var metaOff, metaLen uint64
	switch magic := binary.BigEndian.Uint64(footer[len(footer)-8:]); magic {
	case tableMagic:
		f := footer[len(footer)-footerLen:]
		metaOff = binary.BigEndian.Uint64(f[0:8])
		metaLen = binary.BigEndian.Uint64(f[8:16])
		flen = footerLen
	case tableMagic2:
		if int64(len(footer)) < footerLenV2 {
			return nil, fmt.Errorf("sstable: file too small for v2 footer (%d bytes)", size)
		}
		metaOff = binary.BigEndian.Uint64(footer[0:8])
		metaLen = binary.BigEndian.Uint64(footer[8:16])
		if v := int(footer[16]); v != formatV2 {
			return nil, fmt.Errorf("sstable: unsupported table format version %d", v)
		}
		format = formatV2
		flen = footerLenV2
	default:
		return nil, fmt.Errorf("sstable: bad magic %016x", magic)
	}
	if int64(metaOff)+int64(metaLen) > size-flen {
		return nil, fmt.Errorf("sstable: meta section out of bounds")
	}
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, int64(metaOff)); err != nil {
		return nil, fmt.Errorf("sstable: read meta: %w", err)
	}
	if stats == nil {
		stats = new(metrics.IOStats)
	}
	t := &Table{
		r:      r,
		id:     tableIDCounter.Add(1),
		format: format,
		attrs:  map[string]*secAttrMeta{},
		stats:  stats,
		cache:  blockCache,
	}
	if err := t.decodeMeta(meta); err != nil {
		return nil, err
	}
	return t, nil
}

// ID returns the table's process-unique identity (for cache eviction).
func (t *Table) ID() uint64 { return t.id }

type metaReader struct {
	buf []byte
	off int
	err error
}

func (m *metaReader) uvarint() uint64 {
	if m.err != nil {
		return 0
	}
	v, n := binary.Uvarint(m.buf[m.off:])
	if n <= 0 {
		m.err = fmt.Errorf("sstable: corrupt meta varint at %d", m.off)
		return 0
	}
	m.off += n
	return v
}

func (m *metaReader) bytes() []byte {
	n := m.uvarint()
	if m.err != nil {
		return nil
	}
	if m.off+int(n) > len(m.buf) {
		m.err = fmt.Errorf("sstable: corrupt meta bytes at %d", m.off)
		return nil
	}
	b := m.buf[m.off : m.off+int(n)]
	m.off += int(n)
	return b
}

func (m *metaReader) str() string { return string(m.bytes()) }

func (m *metaReader) bool() bool {
	if m.err != nil {
		return false
	}
	if m.off >= len(m.buf) {
		m.err = fmt.Errorf("sstable: corrupt meta bool at %d", m.off)
		return false
	}
	v := m.buf[m.off] != 0
	m.off++
	return v
}

func (t *Table) decodeMeta(meta []byte) error {
	if len(meta) < 4 {
		return fmt.Errorf("sstable: meta section truncated")
	}
	body, crcBytes := meta[:len(meta)-4], meta[len(meta)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(crcBytes); got != want {
		return fmt.Errorf("sstable: meta checksum mismatch")
	}
	m := &metaReader{buf: body}
	version := m.uvarint()
	if version != metaVersion && version != metaVersion2 {
		return fmt.Errorf("sstable: unsupported meta version %d", version)
	}
	nBlocks := m.uvarint()
	t.blocks = make([]blockMeta, nBlocks)
	for i := range t.blocks {
		offset, size := m.uvarint(), m.uvarint()
		if size > math.MaxUint32 && m.err == nil {
			m.err = fmt.Errorf("sstable: block %d of %d bytes", i, size)
		}
		t.blocks[i] = blockMeta{
			offset:       offset,
			size:         uint32(size),
			firstKey:     append([]byte(nil), m.bytes()...),
			lastKey:      append([]byte(nil), m.bytes()...),
			primaryBloom: bloom.Filter(append([]byte(nil), m.bytes()...)),
		}
	}
	nAttrs := m.uvarint()
	for a := uint64(0); a < nAttrs; a++ {
		am := &secAttrMeta{name: m.str()}
		am.fileZone.ok = m.bool()
		am.fileZone.min = m.str()
		am.fileZone.max = m.str()
		am.blocks = make([]secBlockMeta, nBlocks)
		for i := range am.blocks {
			am.blocks[i].filter = bloom.Filter(append([]byte(nil), m.bytes()...))
			am.blocks[i].zone.ok = m.bool()
			am.blocks[i].zone.min = m.str()
			am.blocks[i].zone.max = m.str()
		}
		t.attrs[am.name] = am
	}
	t.entryCount = int(m.uvarint())
	t.maxSeq = m.uvarint()
	if version == metaVersion2 {
		// A block whose max seq lies more than 2^32 − 1 below the table's
		// keeps that distance as its bound: higher than its max seq, still
		// a bound on it.
		t.blockSeqs = true
		for i := range t.blocks {
			t.blocks[i].seqBelow = uint32(min(m.uvarint(), math.MaxUint32))
		}
	}
	return m.err
}

// NumBlocks returns the number of data blocks.
func (t *Table) NumBlocks() int { return len(t.blocks) }

// EntryCount returns the number of entries in the table.
func (t *Table) EntryCount() int { return t.entryCount }

// MaxSeq returns the highest sequence number stored in the table, used to
// prune strata that cannot improve a full top-K heap.
func (t *Table) MaxSeq() uint64 { return t.maxSeq }

// HasBlockMaxSeqs reports whether the table records each block's max seq
// (meta version 2, which every table written since has).
func (t *Table) HasBlockMaxSeqs() bool { return t.blockSeqs }

// BlockMaxSeq returns the highest sequence number stored in block i: no
// entry of the block is newer. A table without the column answers MaxSeq
// for every block, which bounds nothing the table bound does not.
func (t *Table) BlockMaxSeq(i int) uint64 { return t.maxSeq - uint64(t.blocks[i].seqBelow) }

// Smallest returns the smallest internal key (nil for an empty table).
func (t *Table) Smallest() []byte {
	if len(t.blocks) == 0 {
		return nil
	}
	return t.blocks[0].firstKey
}

// Largest returns the largest internal key (nil for an empty table).
func (t *Table) Largest() []byte {
	if len(t.blocks) == 0 {
		return nil
	}
	return t.blocks[len(t.blocks)-1].lastKey
}

// readBlock fetches, verifies and decompresses block i, attributing I/O to
// foreground reads or compaction according to the flag, and to tr, which
// may be nil: a cache-served fetch is timed as PhaseCacheHit, a disk read
// as PhaseBlockLoad (both sub-phases, nested inside whatever probe phase
// is running). A block the cache serves or takes is immutable and, on a
// miss, an exact-size copy that only the caller and the cache reference.
// Any other block is decoded into buf when buf is non-nil, and is then
// valid only until buf's next use; with a nil buf it is an exact-size copy
// too.
//
//lsm:hotpath
func (t *Table) readBlock(i int, compaction bool, buf *blockBuf, tr *metrics.Trace) ([]byte, error) {
	t0 := tr.Now()
	// Foreground reads may be served from the block cache; compaction
	// reads bypass it (LevelDB's rule) so compactions neither pollute nor
	// benefit from it.
	cached := t.cache != nil && !compaction
	if cached {
		if raw, ok := t.cache.Get(cache.Key{Table: t.id, Block: i}); ok {
			t.stats.CacheHits.Add(1)
			tr.Count(metrics.CtrCacheHits, 1)
			tr.Since(metrics.PhaseCacheHit, t0)
			return raw, nil
		}
		t.stats.CacheMisses.Add(1)
	}
	d := blockDecoders.Get().(*blockDecoder)
	if cached || buf == nil {
		buf = &d.buf
	}
	raw, err := t.fetchBlock(d, buf, i, compaction)
	if err == nil && buf == &d.buf {
		raw = ownedCopy(raw)
	}
	blockDecoders.Put(d)
	if err != nil {
		return nil, err
	}
	if !compaction {
		tr.Count(metrics.CtrBlockReads, 1)
		if cached {
			t.cache.Put(cache.Key{Table: t.id, Block: i}, raw)
		}
	}
	tr.Since(metrics.PhaseBlockLoad, t0)
	return raw, nil
}

// fetchBlock reads block i from the file into buf and verifies and
// decompresses it there. The payload it returns aliases buf and is valid
// until buf's next use.
func (t *Table) fetchBlock(d *blockDecoder, buf *blockBuf, i int, compaction bool) ([]byte, error) {
	phys, err := t.readPhys(buf, i, compaction)
	if err != nil {
		return nil, err
	}
	return d.decodeBlock(phys, &buf.raw)
}

// readPhys reads the physical block i from the file into buf.phys and
// counts the read.
func (t *Table) readPhys(buf *blockBuf, i int, compaction bool) ([]byte, error) {
	bm := t.blocks[i]
	if cap(buf.phys) < int(bm.size) {
		buf.phys = make([]byte, bm.size)
	}
	phys := buf.phys[:bm.size]
	if _, err := t.r.ReadAt(phys, int64(bm.offset)); err != nil {
		return nil, fmt.Errorf("sstable: read block %d: %w", i, err)
	}
	if compaction {
		t.stats.CompactionReads.Add(1)
		t.stats.CompactionReadBytes.Add(int64(len(phys)))
	} else {
		t.stats.BlockReads.Add(1)
		t.stats.BlockReadBytes.Add(int64(len(phys)))
	}
	return phys, nil
}

// candidateBlocks returns the index range [lo, hi) of blocks whose
// user-key span may contain userKey. Blocks are disjoint in internal-key
// order, so at most two blocks can straddle one user key (a key's versions
// crossing a block boundary).
func (t *Table) candidateBlocks(userKey []byte) (int, int) {
	lo := sort.Search(len(t.blocks), func(i int) bool {
		return bytes.Compare(ikey.UserKey(t.blocks[i].lastKey), userKey) >= 0
	})
	hi := lo
	for hi < len(t.blocks) && bytes.Compare(ikey.UserKey(t.blocks[hi].firstKey), userKey) <= 0 {
		hi++
	}
	return lo, hi
}

// PrimaryBlock returns the first data block whose key span and primary
// bloom filter admit userKey — the block a point read of userKey loads
// first — counting each bloom filter consulted (and each that excluded a
// block) on tr, which may be nil. ok is false when no block does: userKey
// is not in this table. It reads in-memory metadata only, no disk — the
// cheap probe behind GetLite (paper §3).
//
//lsm:hotpath
func (t *Table) PrimaryBlock(userKey []byte, tr *metrics.Trace) (block int, ok bool) {
	lo, hi := t.candidateBlocks(userKey)
	for i := lo; i < hi; i++ {
		tr.Count(metrics.CtrBloomProbes, 1)
		if t.blocks[i].primaryBloom.MayContain(userKey) {
			return i, true
		}
		tr.Count(metrics.CtrBloomNegatives, 1)
	}
	return -1, false
}

// OverlappingBlocks returns the span [first, end) of data blocks whose
// key span intersects the user-key range [loUser, hiExcl) — metadata
// only, no I/O. A nil hiExcl is unbounded above. Its length is the live
// "M" of the cost model's RANGELOOKUP formulas (Table 5), and a
// stand-alone RANGELOOKUP reads no other block of the table.
func (t *Table) OverlappingBlocks(loUser, hiExcl []byte) (first, end int) {
	first = sort.Search(len(t.blocks), func(i int) bool {
		return bytes.Compare(ikey.UserKey(t.blocks[i].lastKey), loUser) >= 0
	})
	end = len(t.blocks)
	if hiExcl != nil {
		end = first + sort.Search(end-first, func(i int) bool {
			return bytes.Compare(ikey.UserKey(t.blocks[first+i].firstKey), hiExcl) >= 0
		})
	}
	return first, end
}

// FormatVersion reports the table's block format: 1 (the seed's
// linear-only blocks, which are read but no longer written) or 2 (restart
// arrays). It lets other packages check that compaction has rewritten a
// seed-format database into v2.
func (t *Table) FormatVersion() int { return t.format }

// initBlockIter resets it over raw according to the table's format.
func (t *Table) initBlockIter(it *BlockIter, raw []byte) error {
	if t.format >= formatV2 {
		return it.initV2(raw)
	}
	it.initV1(raw)
	return nil
}

// GetScratch carries the reusable buffers of the point-read path: the
// block iterator (whose key buffer survives across blocks and calls), the
// seek-key buffer and the last block read through it. A zero value is
// ready to use; reusing one scratch across a sequence of Gets makes the
// steady state allocation-free. A scratch must not outlive the read lock
// of the tables it was used on.
//
// On a table without a block cache the block a Get reads may be only a
// prefix of its entries (see GetWith). A later Get through the same
// scratch answers from that prefix when its key lies inside it, and reads
// the block again, up to its last key, when it does not. A sorted batch
// avoids the second read by setting Later before each Get: the prefix
// then reaches every later key the block can hold, so Gets in ascending
// key order read, inflate and count each block of a table at most once.
type GetScratch struct {
	bi   BlockIter
	seek []byte
	// The block read last: its table's ID (0, which no table has, before
	// the first read), its index, its immutable contents and whether they
	// end before the block's last entry (a v1 stream with no trailer).
	blkTable  uint64
	blkIdx    int
	blk       []byte
	blkPrefix bool
	// resume says that bi stands in the prefix blk on the first entry at
	// or after seek, so that a search for a larger key goes on from there.
	resume bool
	// Trace, when non-nil, receives block-load vs. cache-hit sub-phase
	// timings for every block fetched through this scratch.
	Trace *metrics.Trace
	// Later is the batch hint: the keys, ascending and each above the key
	// of the current Get, that the caller will read through this scratch
	// next. Nil for a Get outside a batch.
	Later [][]byte
}

// GetWith returns the newest record for userKey in this table: its
// internal key and value. ok is false if the key is absent. A tombstone is
// returned like any record (callers inspect the kind). A zero GetScratch
// is ready to use. The returned internal key aliases sc and is valid only
// until sc's next use; the returned value aliases the (immutable) block
// contents and remains valid while the table is open. Neither may be
// modified. A block this table read last through sc is reused, not read
// again (and not counted again), when it reaches userKey.
//
// With a block cache, a block is inflated and cached whole, and the
// in-block search is BlockIter.SeekGE: on v2 tables a restart-array
// binary search that decodes at most one restart interval, on v1 tables
// the seed's linear scan. Without one, the block's CRC is checked whole
// but a compressed block is inflated only up to the first entry at or
// after the bound, and only that prefix is copied out: the bound is
// userKey, or the largest key of sc.Later the block can hold. The scan
// that finds the stop is the in-block search, and a prefix reused later is
// searched linearly. A block whose stream ends before the stop, or holds a
// malformed entry before it, is inflated and searched whole. The table's
// stats record PointGets, BlockSeeks and EntriesDecoded, whose ratio is
// the per-GET decode cost.
//
//lsm:hotpath
func (t *Table) GetWith(sc *GetScratch, userKey []byte) (internalKey, value []byte, ok bool, err error) {
	t.stats.PointGets.Add(1)
	tr := sc.Trace
	tr.Count(metrics.CtrPointGets, 1)
	lo, hi := t.candidateBlocks(userKey)
	for i := lo; i < hi; i++ {
		tr.Count(metrics.CtrBloomProbes, 1)
		if !t.blocks[i].primaryBloom.MayContain(userKey) {
			tr.Count(metrics.CtrBloomNegatives, 1)
			continue
		}
		held := sc.blkTable == t.id && sc.blkIdx == i
		var hit bool
		if held {
			if hit, err = t.seekLoaded(sc, userKey); err != nil {
				return nil, nil, false, err
			}
		}
		// A prefix that ends before userKey does not answer it.
		if !held || !hit && sc.blkPrefix {
			if t.cache == nil {
				hit, err = t.readPrefix(sc, i, userKey, held)
			} else {
				hit, err = t.readWhole(sc, i, userKey)
			}
			if err != nil {
				return nil, nil, false, err
			}
		}
		if it := &sc.bi; hit && bytes.Equal(ikey.UserKey(it.key), userKey) {
			return it.key, it.val, true, nil
		}
		// The block passed its bloom filter but held no match for userKey.
		tr.Count(metrics.CtrBloomFalsePositives, 1)
	}
	return nil, nil, false, nil
}

// readWhole reads block i whole into sc, through the block cache, and
// seeks userKey in it.
func (t *Table) readWhole(sc *GetScratch, i int, userKey []byte) (bool, error) {
	raw, err := t.readBlock(i, false, nil, sc.Trace)
	if err != nil {
		return false, err
	}
	sc.blkTable, sc.blkIdx, sc.blk, sc.blkPrefix, sc.resume = t.id, i, raw, false, false
	return t.seekLoaded(sc, userKey)
}

// readPrefix reads block i into sc for a point read of userKey on a table
// without a block cache, inflating a compressed block only as far as
// GetWith says, and positions sc.bi at the first entry at or after
// userKey's seek key, reporting whether there is one. again says that sc
// held a prefix of the block that ended before userKey: the caller walks
// the block without a batch hint, so this read goes up to its last key.
// The read, the inflate and the scan are timed as the trace's block-load
// sub-phase.
//
//lsm:hotpath
func (t *Table) readPrefix(sc *GetScratch, i int, userKey []byte, again bool) (bool, error) {
	sc.resume = false
	tr := sc.Trace
	t0 := tr.Now()
	d := blockDecoders.Get().(*blockDecoder)
	defer blockDecoders.Put(d)
	phys, err := t.readPhys(&d.buf, i, false)
	if err != nil {
		return false, err
	}
	payload, codec, err := checkBlock(phys)
	if err != nil {
		return false, err
	}
	it := &sc.bi
	var raw []byte
	if codec == FlateCompression {
		bound, batch := sc.bound(userKey, t.blocks[i].lastKey)
		if again {
			bound, batch = ikey.UserKey(t.blocks[i].lastKey), true
		}
		found, err := it.inflateUntil(&d.inf, payload, &d.buf.raw, bound)
		t.countDecoded(tr, it.decoded)
		if err != nil {
			it.data, it.val = nil, nil // they alias the pooled buffer
			return false, fmt.Errorf("sstable: flate decode: %w", err)
		}
		raw = ownedCopy(d.buf.raw)
		if found {
			sc.blkTable, sc.blkIdx, sc.blk, sc.blkPrefix = t.id, i, raw, true
			tr.Count(metrics.CtrBlockReads, 1)
			tr.Since(metrics.PhaseBlockLoad, t0)
			if batch {
				return t.seekLoaded(sc, userKey)
			}
			// The stop is the first entry at or after userKey's seek key:
			// the search's answer, and the prefix's last entry.
			it.data, it.val = raw, raw[it.off-len(it.val):it.off]
			return true, nil
		}
	} else if raw, err = d.decodePayload(payload, codec, &d.buf.raw); err != nil {
		return false, err
	} else {
		raw = ownedCopy(raw)
	}
	sc.blkTable, sc.blkIdx, sc.blk, sc.blkPrefix = t.id, i, raw, false
	tr.Count(metrics.CtrBlockReads, 1)
	tr.Since(metrics.PhaseBlockLoad, t0)
	return t.seekLoaded(sc, userKey)
}

// bound returns the user key a point read of userKey in the block whose
// last key is last inflates up to: the largest key of sc.Later that the
// block can hold, and batch, or userKey itself.
func (sc *GetScratch) bound(userKey, last []byte) (bound []byte, batch bool) {
	lastUser := ikey.UserKey(last)
	j := sort.Search(len(sc.Later), func(j int) bool { return bytes.Compare(sc.Later[j], lastUser) > 0 })
	if j == 0 || bytes.Compare(sc.Later[j-1], userKey) <= 0 {
		return userKey, false
	}
	return sc.Later[j-1], true
}

// seekLoaded positions sc.bi at the first entry of sc's block at or after
// userKey's seek key, reporting whether there is one. A prefix is searched
// linearly, as a v1 stream.
//
//lsm:hotpath
func (t *Table) seekLoaded(sc *GetScratch, userKey []byte) (bool, error) {
	it := &sc.bi
	// A batch's next key goes on from the last one's entry: every entry
	// before it sorts below that key.
	resume := sc.resume && bytes.Compare(userKey, ikey.UserKey(sc.seek)) > 0
	if resume {
		it.decoded = 0
	} else if sc.blkPrefix {
		it.initV1(sc.blk)
	} else if err := t.initBlockIter(it, sc.blk); err != nil {
		return false, err
	}
	if it.numRestarts > 0 {
		t.stats.BlockSeeks.Add(1)
	}
	// SeekKey sorts before every version of userKey, so the first entry at
	// or after it is the newest version iff user keys match.
	sc.seek = ikey.AppendSeek(sc.seek[:0], userKey)
	var hit bool
	if resume {
		hit = ikey.Compare(it.key, sc.seek) >= 0 || it.nextGE(sc.seek)
	} else {
		hit = it.SeekGE(sc.seek)
	}
	sc.resume = hit && sc.blkPrefix
	if err := it.Err(); err != nil {
		return false, err
	}
	t.countDecoded(sc.Trace, it.decoded)
	return hit, nil
}

// countDecoded records n entries decoded by a point read.
func (t *Table) countDecoded(tr *metrics.Trace, n int) {
	t.stats.EntriesDecoded.Add(int64(n))
	tr.Count(metrics.CtrEntriesDecoded, int64(n))
}

// FileZone returns the file-level zone map for attr: the min and max
// attribute values present anywhere in this table. ok is false when the
// attribute is not indexed or no entry carried it.
func (t *Table) FileZone(attr string) (min, max string, ok bool) {
	am := t.attrs[attr]
	if am == nil || !am.fileZone.ok {
		return "", "", false
	}
	return am.fileZone.min, am.fileZone.max, true
}

// SecondaryCandidates returns the data blocks that may contain an entry
// with attr == value: the file zone map, per-block zone maps, and
// per-block bloom filters must all pass (paper §3 LOOKUP). It attributes
// to tr, which may be nil, the blocks pruned by zone maps (a whole-file
// zone reject prunes every block), secondary bloom probes/negatives, and
// the surviving candidate count.
func (t *Table) SecondaryCandidates(attr, value string, tr *metrics.Trace) []int {
	am := t.attrs[attr]
	if am == nil {
		return nil
	}
	if !am.fileZone.contains(value) {
		tr.Count(metrics.CtrZoneMapPrunes, int64(len(am.blocks)))
		return nil
	}
	v := []byte(value)
	var out []int
	for i := range am.blocks {
		sb := &am.blocks[i]
		if !sb.zone.contains(value) {
			tr.Count(metrics.CtrZoneMapPrunes, 1)
			continue
		}
		tr.Count(metrics.CtrBloomProbes, 1)
		if !sb.filter.MayContain(v) {
			tr.Count(metrics.CtrBloomNegatives, 1)
			continue
		}
		out = append(out, i)
	}
	tr.Count(metrics.CtrCandidateBlocks, int64(len(out)))
	return out
}

// SecondaryRangeCandidates returns the data blocks whose attr zone map
// overlaps [lo, hi] (paper §3 RANGELOOKUP; bloom filters cannot help range
// predicates), with zone-map prune and candidate counts attributed to tr,
// which may be nil.
func (t *Table) SecondaryRangeCandidates(attr, lo, hi string, tr *metrics.Trace) []int {
	am := t.attrs[attr]
	if am == nil {
		return nil
	}
	if !am.fileZone.overlaps(lo, hi) {
		tr.Count(metrics.CtrZoneMapPrunes, int64(len(am.blocks)))
		return nil
	}
	var out []int
	for i := range am.blocks {
		if !am.blocks[i].zone.overlaps(lo, hi) {
			tr.Count(metrics.CtrZoneMapPrunes, 1)
			continue
		}
		out = append(out, i)
	}
	tr.Count(metrics.CtrCandidateBlocks, int64(len(out)))
	return out
}

// FilterMemoryBytes returns the in-memory footprint of all bloom filters
// and zone maps, for the space accounting of Figure 8a.
func (t *Table) FilterMemoryBytes() int {
	n := 0
	for _, b := range t.blocks {
		n += len(b.primaryBloom) + len(b.firstKey) + len(b.lastKey)
	}
	for _, am := range t.attrs {
		for _, sb := range am.blocks {
			n += len(sb.filter) + len(sb.zone.min) + len(sb.zone.max)
		}
	}
	return n
}

// Iterator walks every entry of a table in internal-key order.
type Iterator struct {
	t          *Table
	compaction bool
	blockIdx   int
	bi         *BlockIter // nil when unpositioned / between blocks
	biStore    BlockIter  // backing store: key buffer (and, for compaction, block) reused across blocks
	tr         *metrics.Trace
	err        error
}

// NewIterator returns an unpositioned iterator. compaction attributes its
// block reads to compaction I/O counters.
func (t *Table) NewIterator(compaction bool) *Iterator {
	return &Iterator{t: t, compaction: compaction, blockIdx: -1}
}

// NewIteratorTraced is NewIterator with every block fetch attributed to
// the trace (block-load/cache-hit sub-phases plus block counters) — the
// table side of lsm.DB.Scan.
func (t *Table) NewIteratorTraced(compaction bool, tr *metrics.Trace) *Iterator {
	return &Iterator{t: t, compaction: compaction, blockIdx: -1, tr: tr}
}

// LoadBlock reads block i into it, positioned before the block's first
// entry — the Embedded secondary lookup path, which visits only
// bloom/zone-map-positive blocks, one iterator for all of them, and the
// stand-alone indexes' block units. The fetch
// is attributed to the trace's block-load / cache-hit sub-phases. Without
// a block cache the block is decoded into the iterator's own buffers, so
// the keys and values it yields are valid only until its next LoadBlock.
//
//lsm:hotpath
func (t *Table) LoadBlock(it *BlockIter, i int, tr *metrics.Trace) error {
	raw, err := t.readBlock(i, false, &it.buf, tr)
	if err != nil {
		return err
	}
	return t.initBlockIter(it, raw)
}

// loadBlock positions the iterator at the start of block i. A compaction
// iterator never touches the cache and hands out keys and values only
// until its next call, so it decodes every block into the same buffers;
// any other reads a block it may share.
//
//lsm:hotpath
func (it *Iterator) loadBlock(i int) bool {
	if i >= len(it.t.blocks) {
		it.bi = nil
		return false
	}
	var buf *blockBuf
	if it.compaction {
		buf = &it.biStore.buf
	}
	raw, err := it.t.readBlock(i, it.compaction, buf, it.tr)
	if err != nil {
		it.err = err
		it.bi = nil
		return false
	}
	if err := it.t.initBlockIter(&it.biStore, raw); err != nil {
		it.err = err
		it.bi = nil
		return false
	}
	it.blockIdx = i
	it.bi = &it.biStore
	return true
}

// Next advances; returns false at end or error.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	if it.bi == nil {
		if !it.loadBlock(it.blockIdx + 1) {
			return false
		}
	}
	for {
		if it.bi.Next() {
			return true
		}
		if err := it.bi.Err(); err != nil {
			it.err = err
			return false
		}
		if !it.loadBlock(it.blockIdx + 1) {
			return false
		}
	}
}

// SeekGE positions at the first entry with internal key >= target;
// returns false if no such entry exists or a block failed to load (the
// two are distinguished by Err — callers must not treat a false return
// with a pending error as "past the end").
func (it *Iterator) SeekGE(target []byte) bool {
	if it.err != nil {
		return false
	}
	idx := sort.Search(len(it.t.blocks), func(i int) bool {
		return ikey.Compare(it.t.blocks[i].lastKey, target) >= 0
	})
	it.bi = nil
	it.blockIdx = idx
	if idx >= len(it.t.blocks) {
		return false
	}
	// Load the candidate block directly: a failed load must surface as an
	// error, not silently fall through to iterating unrelated blocks.
	if !it.loadBlock(idx) {
		return false
	}
	if it.bi.numRestarts > 0 && !it.compaction {
		it.t.stats.BlockSeeks.Add(1)
	}
	if it.bi.SeekGE(target) {
		return true
	}
	if err := it.bi.Err(); err != nil {
		it.err = err
		return false
	}
	// target <= lastKey guarantees an in-block hit on well-formed tables;
	// advancing covers an empty decoded block without masking errors.
	return it.Next()
}

// Key returns the current internal key (valid until the next call).
func (it *Iterator) Key() []byte { return it.bi.key }

// Value returns the current value (valid until the next call).
func (it *Iterator) Value() []byte { return it.bi.val }

// Err reports any error hit during iteration.
func (it *Iterator) Err() error { return it.err }

// SecondaryAttrs lists the attributes with embedded index structures,
// sorted for deterministic output.
func (t *Table) SecondaryAttrs() []string {
	out := make([]string, 0, len(t.attrs))
	for name := range t.attrs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BlockRange returns the first and last internal keys of block i.
func (t *Table) BlockRange(i int) (first, last []byte) {
	return t.blocks[i].firstKey, t.blocks[i].lastKey
}

// BlockZone returns attr's zone map for block i. ok is false when the
// attribute is unindexed or no entry in the block carried it.
func (t *Table) BlockZone(attr string, i int) (min, max string, ok bool) {
	am := t.attrs[attr]
	if am == nil || !am.blocks[i].zone.ok {
		return "", "", false
	}
	return am.blocks[i].zone.min, am.blocks[i].zone.max, true
}
