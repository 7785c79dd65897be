package sstable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"leveldbpp/internal/bloom"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// Options configures table building and opening.
type Options struct {
	// BlockSize is the uncompressed target size of a data block.
	BlockSize int
	// BitsPerKey sizes the per-block primary-key bloom filters.
	BitsPerKey int
	// SecondaryBitsPerKey sizes per-block secondary-attribute bloom
	// filters (paper Appendix C.1 sweeps this). 0 means BitsPerKey.
	SecondaryBitsPerKey int
	// Compression selects the block codec.
	Compression Compression
	// SecondaryAttrs lists the attributes for which embedded bloom
	// filters and zone maps are built (paper §3). May be empty.
	SecondaryAttrs []string
	// Stats receives block I/O accounting; may be nil.
	Stats *metrics.IOStats
	// CompactionIO attributes writes to compaction counters instead of
	// foreground flush counters.
	CompactionIO bool
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.BitsPerKey <= 0 {
		o.BitsPerKey = 10
	}
	if o.SecondaryBitsPerKey <= 0 {
		o.SecondaryBitsPerKey = o.BitsPerKey
	}
	return o
}

// AttrValue carries one indexed secondary attribute value for an entry
// being added to a table.
type AttrValue struct {
	Attr  string
	Value string
}

// zone is a min/max range over attribute values (a zone map entry).
type zone struct {
	min, max string
	ok       bool
}

func (z *zone) extend(v string) {
	if !z.ok {
		z.min, z.max, z.ok = v, v, true
		return
	}
	if v < z.min {
		z.min = v
	}
	if v > z.max {
		z.max = v
	}
}

func (z *zone) contains(v string) bool      { return z.ok && z.min <= v && v <= z.max }
func (z *zone) overlaps(lo, hi string) bool { return z.ok && z.min <= hi && lo <= z.max }

// blockMeta is the in-memory (and on-disk) descriptor of one data block:
// its location, its primary-key zone map (first/last internal key — the
// "data index block" of Figure 3), its primary bloom filter and, in an
// opened table, how far its max seq lies below the table's.
type blockMeta struct {
	offset       uint64
	size         uint32
	seqBelow     uint32 // table MaxSeq − the block's max seq, capped; 0 without the column
	firstKey     []byte // internal key of the first entry
	lastKey      []byte // internal key of the last entry
	primaryBloom bloom.Filter
}

// secBlockMeta holds the Embedded-index structures for one (attribute,
// block) pair: a bloom filter over that block's attribute values and the
// block's attribute zone map.
type secBlockMeta struct {
	filter bloom.Filter
	zone   zone
}

// secAttrMeta aggregates an attribute's embedded index across a table:
// per-block filters/zones plus the file-level zone map the paper stores
// "in a global metadata file".
type secAttrMeta struct {
	name     string
	fileZone zone
	blocks   []secBlockMeta
}

// byteStrings collects one block's worth of byte strings (user keys, or
// one attribute's values) back to back in a single buffer, and lends them
// to bloom.Build as slices. Everything is reused from block to block.
type byteStrings struct {
	data  []byte
	ends  []int // ends[i] is where string i stops in data
	views [][]byte
}

func (s *byteStrings) add(p []byte) {
	s.data = append(s.data, p...)
	s.ends = append(s.ends, len(s.data))
}

func (s *byteStrings) addString(p string) {
	s.data = append(s.data, p...)
	s.ends = append(s.ends, len(s.data))
}

// slices returns the collected strings; they alias the buffer and are
// valid until the next add or reset.
func (s *byteStrings) slices() [][]byte {
	s.views = s.views[:0]
	start := 0
	for _, end := range s.ends {
		s.views = append(s.views, s.data[start:end:end])
		start = end
	}
	return s.views
}

func (s *byteStrings) reset() { s.data, s.ends = s.data[:0], s.ends[:0] }

// attrBuilder is the build state of one indexed secondary attribute: the
// table-wide metadata collected so far and the pending block's values.
type attrBuilder struct {
	meta   secAttrMeta
	values byteStrings
}

// zoneOf returns the zone map of one block's attribute values. Its two
// bounds are copies, cut from one string.
func zoneOf(values [][]byte) zone {
	if len(values) == 0 {
		return zone{}
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if bytes.Compare(v, lo) < 0 {
			lo = v
		} else if bytes.Compare(v, hi) > 0 {
			hi = v
		}
	}
	both := string(lo) + string(hi)
	return zone{min: both[:len(lo)], max: both[len(lo):], ok: true}
}

// tableWriteBuffer batches a table's output into one write per 16 or more
// data blocks of the default 4 KiB (about 20 once compressed).
const tableWriteBuffer = 64 << 10

// Builder writes an SSTable in format v2 to w. Entries must be added in
// strictly increasing internal-key order.
type Builder struct {
	w    *bufio.Writer
	opts Options

	block     blockBuilder
	firstIKey []byte // of the pending block; handed to its blockMeta
	lastIKey  []byte // the last key added
	userKeys  byteStrings
	attrs     []attrBuilder // one per distinct name in opts.SecondaryAttrs

	blocks     []blockMeta
	offset     uint64
	entryCount int
	maxSeq     uint64
	blockSeq   uint64   // max seq of the pending block
	blockSeqs  []uint64 // max seq of each block
	err        error
}

// NewBuilder returns a Builder writing to w with the given options. Output
// is buffered: it has all reached w only when Finish returns.
func NewBuilder(w io.Writer, opts Options) *Builder {
	opts = opts.withDefaults()
	b := &Builder{
		w:    bufio.NewWriterSize(w, tableWriteBuffer),
		opts: opts,
	}
	for _, a := range opts.SecondaryAttrs {
		if b.attr(a) == nil {
			b.attrs = append(b.attrs, attrBuilder{meta: secAttrMeta{name: a}})
		}
	}
	return b
}

// attr returns the build state of the named attribute, nil when it is not
// indexed. Tables index a handful of attributes, so a scan beats a map.
func (b *Builder) attr(name string) *attrBuilder {
	for i := range b.attrs {
		if b.attrs[i].meta.name == name {
			return &b.attrs[i]
		}
	}
	return nil
}

// Add appends an entry. attrs carries the entry's indexed secondary
// attribute values; attribute names not listed in Options.SecondaryAttrs
// are ignored, and entries (e.g. tombstones) may carry none. Nothing
// passed in is kept: keys, value and attribute values are copied.
func (b *Builder) Add(internalKey, value []byte, attrs []AttrValue) error {
	if b.err != nil {
		return b.err
	}
	if b.entryCount > 0 && ikey.Compare(b.lastIKey, internalKey) >= 0 {
		b.err = fmt.Errorf("sstable: keys added out of order: %s then %s",
			ikey.String(b.lastIKey), ikey.String(internalKey))
		return b.err
	}
	if b.block.empty() {
		b.firstIKey = append([]byte(nil), internalKey...)
	}
	b.lastIKey = append(b.lastIKey[:0], internalKey...)
	b.block.add(internalKey, value)
	b.userKeys.add(ikey.UserKey(internalKey))
	for _, av := range attrs {
		if a := b.attr(av.Attr); a != nil {
			a.values.addString(av.Value)
		}
	}
	b.entryCount++
	s := ikey.Seq(internalKey)
	b.maxSeq = max(b.maxSeq, s)
	b.blockSeq = max(b.blockSeq, s)

	if b.block.sizeEstimate() >= b.opts.BlockSize {
		return b.flushBlock()
	}
	return nil
}

// flushBlock writes the pending block and records its metadata. What it
// allocates is what the table's metadata keeps: the block's last key and
// one bloom filter for the primary key and for each attribute.
//
//lsm:hotpath
func (b *Builder) flushBlock() error {
	phys, err := b.block.finish(b.opts.Compression)
	if err != nil {
		b.err = err
		return err
	}
	if _, err := b.w.Write(phys); err != nil {
		b.err = fmt.Errorf("sstable: write data block: %w", err)
		return b.err
	}
	if s := b.opts.Stats; s != nil {
		if b.opts.CompactionIO {
			s.CompactionWrites.Add(1)
			s.CompactionWriteBytes.Add(int64(len(phys)))
		} else {
			s.BlockWrites.Add(1)
			s.BlockWriteBytes.Add(int64(len(phys)))
		}
	}

	bm := blockMeta{
		offset:       b.offset,
		size:         uint32(len(phys)),
		firstKey:     b.firstIKey,
		lastKey:      append([]byte(nil), b.lastIKey...), //lsm:allocok kept by the block index
		primaryBloom: bloom.Build(b.userKeys.slices(), b.opts.BitsPerKey),
	}
	b.blocks = append(b.blocks, bm)
	b.offset += uint64(len(phys))
	b.blockSeqs = append(b.blockSeqs, b.blockSeq)
	b.blockSeq = 0

	for i := range b.attrs {
		a := &b.attrs[i]
		values := a.values.slices()
		sb := secBlockMeta{
			filter: bloom.Build(values, b.opts.SecondaryBitsPerKey),
			zone:   zoneOf(values),
		}
		a.meta.blocks = append(a.meta.blocks, sb) //lsm:allocok kept by the attribute's index
		if sb.zone.ok {
			a.meta.fileZone.extend(sb.zone.min)
			a.meta.fileZone.extend(sb.zone.max)
		}
		a.values.reset()
	}

	b.block.reset()
	b.userKeys.reset()
	b.firstIKey = nil
	return nil
}

const (
	// footerLen is the seed's v1 footer: metaOff(8) metaLen(8) magic(8).
	// The reader accepts it; Builder writes only the v2 footer.
	footerLen = 24
	// footerLenV2 adds one format-version byte between metaLen and the
	// (new) magic: metaOff(8) metaLen(8) version(1) magicV2(8). A distinct
	// magic keeps the two footers unambiguous — readers sniff the last 8
	// bytes and parse accordingly, so v1 tables written by the seed
	// builder open byte-for-byte unchanged.
	footerLenV2 = 25
	tableMagic  = 0x4c534d2b2b474f21 // "LSM++GO!"
	tableMagic2 = 0x4c534d2b2b474f32 // "LSM++GO2"
	// metaVersion2 appends each block's max seq to the version-1 meta
	// section. Builder writes it for every table that has a block.
	metaVersion  = 1
	metaVersion2 = 2
	formatV1     = 1
	formatV2     = 2
)

// Finish flushes the pending block, writes the meta section and footer,
// and returns the total file size. The Builder must not be reused.
func (b *Builder) Finish() (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if !b.block.empty() {
		if err := b.flushBlock(); err != nil {
			return 0, err
		}
	}
	meta := b.encodeMeta()
	metaOff := b.offset
	if _, err := b.w.Write(meta); err != nil {
		return 0, fmt.Errorf("sstable: write meta: %w", err)
	}
	b.offset += uint64(len(meta))
	if s := b.opts.Stats; s != nil {
		if b.opts.CompactionIO {
			s.CompactionWrites.Add(1)
			s.CompactionWriteBytes.Add(int64(len(meta)))
		} else {
			s.BlockWrites.Add(1)
			s.BlockWriteBytes.Add(int64(len(meta)))
		}
	}

	var footer [footerLenV2]byte
	binary.BigEndian.PutUint64(footer[0:8], metaOff)
	binary.BigEndian.PutUint64(footer[8:16], uint64(len(meta)))
	footer[16] = formatV2
	binary.BigEndian.PutUint64(footer[17:25], tableMagic2)
	if _, err := b.w.Write(footer[:]); err != nil {
		return 0, fmt.Errorf("sstable: write footer: %w", err)
	}
	if err := b.w.Flush(); err != nil {
		return 0, fmt.Errorf("sstable: flush table: %w", err)
	}
	b.offset += footerLenV2
	return int64(b.offset), nil
}

// EstimatedSize returns bytes written so far plus the pending block.
func (b *Builder) EstimatedSize() int64 {
	return int64(b.offset) + int64(b.block.sizeEstimate())
}

// --- meta encoding ---------------------------------------------------

type metaWriter struct{ buf []byte }

func (m *metaWriter) putUvarint(v uint64) { m.buf = binary.AppendUvarint(m.buf, v) }
func (m *metaWriter) putBytes(p []byte) {
	m.putUvarint(uint64(len(p)))
	m.buf = append(m.buf, p...)
}
func (m *metaWriter) putString(s string) { m.putBytes([]byte(s)) }
func (m *metaWriter) putBool(v bool) {
	if v {
		m.buf = append(m.buf, 1)
	} else {
		m.buf = append(m.buf, 0)
	}
}

func (b *Builder) encodeMeta() []byte {
	var m metaWriter
	if b.blockSeqs != nil {
		m.putUvarint(metaVersion2)
	} else {
		m.putUvarint(metaVersion) // a table of no blocks
	}
	m.putUvarint(uint64(len(b.blocks)))
	for _, bm := range b.blocks {
		m.putUvarint(bm.offset)
		m.putUvarint(uint64(bm.size))
		m.putBytes(bm.firstKey)
		m.putBytes(bm.lastKey)
		m.putBytes(bm.primaryBloom)
	}
	// Deterministic attribute order.
	m.putUvarint(uint64(len(b.opts.SecondaryAttrs)))
	for _, name := range b.opts.SecondaryAttrs {
		am := &b.attr(name).meta
		m.putString(am.name)
		m.putBool(am.fileZone.ok)
		m.putString(am.fileZone.min)
		m.putString(am.fileZone.max)
		for _, sb := range am.blocks {
			m.putBytes(sb.filter)
			m.putBool(sb.zone.ok)
			m.putString(sb.zone.min)
			m.putString(sb.zone.max)
		}
	}
	m.putUvarint(uint64(b.entryCount))
	m.putUvarint(b.maxSeq)
	for _, s := range b.blockSeqs {
		m.putUvarint(b.maxSeq - s)
	}
	crc := crc32.Checksum(m.buf, crcTable)
	m.buf = binary.BigEndian.AppendUint32(m.buf, crc)
	return m.buf
}
