package sstable

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"leveldbpp/internal/bloom"
	"leveldbpp/internal/cache"
	"leveldbpp/internal/ikey"
)

// tableEntry is one input row of the codec tests.
type tableEntry struct {
	ik, val []byte
	attrs   []AttrValue
}

// codecEntries generates n sorted entries whose values alternate between
// runs of compressible text and runs of random bytes, so a flate table
// holds both compressed blocks and blocks stored raw because deflate did
// not shrink them. Different seeds give different contents and sizes.
func codecEntries(seed int64, n int) []tableEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tableEntry, n)
	for i := range out {
		var val []byte
		if (i/40)%3 == 2 {
			val = make([]byte, 20+rng.Intn(60))
			rng.Read(val)
		} else {
			val = []byte(fmt.Sprintf(`{"UserID":"u%04d","CreationTime":"%010d","Text":"%s"}`,
				rng.Intn(50), i, bytes.Repeat([]byte("lorem "), rng.Intn(8))))
		}
		e := tableEntry{
			ik:  ikey.Make([]byte(fmt.Sprintf("k%d-%07d", seed, i)), uint64(i+1), ikey.KindSet),
			val: val,
		}
		if i%7 != 0 { // some entries carry no attributes, as tombstones do
			e.attrs = []AttrValue{
				{Attr: "UserID", Value: fmt.Sprintf("u%04d", rng.Intn(50))},
				{Attr: "Ignored", Value: "x"},
				{Attr: "CreationTime", Value: fmt.Sprintf("%010d", i)},
			}
		}
		out[i] = e
	}
	return out
}

func buildTableBytes(tb testing.TB, entries []tableEntry, opts Options) []byte {
	tb.Helper()
	var buf bytes.Buffer
	b := NewBuilder(&buf, opts)
	for _, e := range entries {
		if err := b.Add(e.ik, e.val, e.attrs); err != nil {
			tb.Fatal(err)
		}
	}
	size, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	if size != int64(buf.Len()) {
		tb.Fatalf("Finish size %d != %d bytes written", size, buf.Len())
	}
	return buf.Bytes()
}

// refFinish is the block encoder as it stood before the codec was reused:
// a fresh trailer, a fresh flate.Writer and a fresh output per block. It
// is the reference the reused codec must match byte for byte.
func refFinish(entries []byte, restarts []uint32, v2 bool, c Compression) []byte {
	raw := append([]byte(nil), entries...)
	if v2 {
		for _, r := range restarts {
			raw = binary.BigEndian.AppendUint32(raw, r)
		}
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(restarts)))
	}
	payload, codec := raw, NoCompression
	if c == FlateCompression {
		var cbuf bytes.Buffer
		fw, err := flate.NewWriter(&cbuf, flate.BestSpeed)
		if err != nil {
			panic(err)
		}
		fw.Write(raw)
		fw.Close()
		if cbuf.Len() < len(raw) {
			payload, codec = cbuf.Bytes(), FlateCompression
		}
	}
	out := append([]byte(nil), payload...)
	out = append(out, byte(codec))
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// refBlock writes block entries in either format at any restart
// interval. It is the reference for blockBuilder, which writes v2 at
// restartInterval only, and the one writer of v1 blocks (interval <= 0):
// no restart points, and the seed builder's entries-only size estimate,
// so v1 tables cut their blocks where the seed cut them.
type refBlock struct {
	interval     int
	buf, prevKey []byte
	restarts     []uint32
	n            int
}

func (b *refBlock) add(key, value []byte) {
	shared := 0
	if b.interval > 0 && b.n%b.interval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	} else {
		for shared < len(key) && shared < len(b.prevKey) && key[shared] == b.prevKey[shared] {
			shared++
		}
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.prevKey = append(b.prevKey[:0], key...)
	b.n++
}

func (b *refBlock) sizeEstimate() int {
	if b.interval > 0 {
		return len(b.buf) + 4*len(b.restarts) + 4
	}
	return len(b.buf)
}

func (b *refBlock) reset() { *b = refBlock{interval: b.interval} }

// finish returns the physical block.
func (b *refBlock) finish(c Compression) []byte {
	return refFinish(b.buf, b.restarts, b.interval > 0, c)
}

// refTableBytes builds a table the way the builder did before it reused
// anything: refFinish per block, one copy per user key, maps keyed by
// attribute name, unbuffered output. It shares with the builder only what
// did not change: block cutting, bloom.Build and the meta encoding. Its
// blocks are refBlocks at the given restart interval: at restartInterval
// the table is the one Builder writes, and at interval <= 0 it is a v1
// table with the seed's 24-byte footer.
func refTableBytes(entries []tableEntry, opts Options, interval int) []byte {
	opts = opts.withDefaults()
	var out bytes.Buffer
	ref := Builder{opts: opts}
	bb := refBlock{interval: interval}
	metas := map[string]*secAttrMeta{}
	values := map[string][][]byte{}
	zones := map[string]*zone{}
	for _, a := range opts.SecondaryAttrs {
		metas[a], zones[a] = &secAttrMeta{name: a}, &zone{}
	}
	var userKeys [][]byte
	var first, last []byte
	var blockSeq uint64
	flush := func() {
		phys := bb.finish(opts.Compression)
		out.Write(phys)
		ref.blocks = append(ref.blocks, blockMeta{
			offset: ref.offset, size: uint32(len(phys)),
			firstKey: first, lastKey: last,
			primaryBloom: bloom.Build(userKeys, opts.BitsPerKey),
		})
		ref.offset += uint64(len(phys))
		// Only the table Builder writes today records each block's max
		// seq; the v1 and restart-4 tables are those of older builders.
		if interval == restartInterval {
			ref.blockSeqs = append(ref.blockSeqs, blockSeq)
		}
		blockSeq = 0
		for name, m := range metas {
			z := *zones[name]
			m.blocks = append(m.blocks, secBlockMeta{filter: bloom.Build(values[name], opts.SecondaryBitsPerKey), zone: z})
			if z.ok {
				m.fileZone.extend(z.min)
				m.fileZone.extend(z.max)
			}
			values[name], *zones[name] = nil, zone{}
		}
		bb.reset()
		userKeys = nil
	}
	for _, e := range entries {
		if bb.n == 0 {
			first = e.ik
		}
		last = e.ik
		bb.add(e.ik, e.val)
		userKeys = append(userKeys, append([]byte(nil), ikey.UserKey(e.ik)...))
		for _, av := range e.attrs {
			if z := zones[av.Attr]; z != nil {
				values[av.Attr] = append(values[av.Attr], []byte(av.Value))
				z.extend(av.Value)
			}
		}
		ref.entryCount++
		ref.maxSeq = max(ref.maxSeq, ikey.Seq(e.ik))
		blockSeq = max(blockSeq, ikey.Seq(e.ik))
		if bb.sizeEstimate() >= opts.BlockSize {
			flush()
		}
	}
	if bb.n > 0 {
		flush()
	}
	for _, a := range opts.SecondaryAttrs {
		if ref.attr(a) == nil {
			ref.attrs = append(ref.attrs, attrBuilder{meta: *metas[a]})
		}
	}
	meta := ref.encodeMeta()
	out.Write(meta)
	var footer []byte
	footer = binary.BigEndian.AppendUint64(footer, ref.offset)
	footer = binary.BigEndian.AppendUint64(footer, uint64(len(meta)))
	if interval > 0 {
		footer = append(footer, formatV2)
		footer = binary.BigEndian.AppendUint64(footer, tableMagic2)
	} else {
		footer = binary.BigEndian.AppendUint64(footer, tableMagic)
	}
	out.Write(footer)
	return out.Bytes()
}

// formatTableBytes returns the table Builder writes when interval is
// restartInterval, and the reference writer's table at any other interval
// (v1 at interval <= 0).
func formatTableBytes(tb testing.TB, entries []tableEntry, opts Options, interval int) []byte {
	if interval == restartInterval {
		return buildTableBytes(tb, entries, opts)
	}
	return refTableBytes(entries, opts, interval)
}

var codecCases = []struct {
	name     string
	opts     Options
	interval int // the block restart interval; <= 0 writes v1
	// sha256 of the seed-1, 1500-entry table as the parent commit's
	// builder (a flate.NewWriter per block) wrote it. The two v2 tables
	// with attributes are pinned with the block max-seq column (meta
	// version 2), which changed their meta sections and nothing else.
	parentSHA string
}{
	{"v2-flate-attrs", Options{BlockSize: 1024, Compression: FlateCompression, SecondaryAttrs: []string{"UserID", "CreationTime"}}, restartInterval, "e247a7d776be6de44f4978c00fb622242d0f8d053d93e57663bf16ee1548ac95"},
	{"v2-none-attrs", Options{BlockSize: 1024, Compression: NoCompression, SecondaryAttrs: []string{"CreationTime", "UserID"}}, restartInterval, "e22aa15c0841160e0f29770e2d8a35817b6ac28aeee57546ba85aa2554b95429"},
	{"v1-flate", Options{BlockSize: 4096, Compression: FlateCompression, SecondaryAttrs: []string{"UserID"}}, 0, "f468af00eb69962d7a5030e20db4dea9e0454f0035deda6c3a09bbca2afd805a"},
	{"v1-none", Options{BlockSize: 4096, Compression: NoCompression}, 0, "edb5c3e82793bf62469c27101f53f986f80e5e5e977d0b80077364cb9848b99c"},
	{"v2-flate-restart4", Options{BlockSize: 512, Compression: FlateCompression, SecondaryBitsPerKey: 6, SecondaryAttrs: []string{"UserID", "UserID"}}, 4, "8c4eb3c3f372223e1fa50a7cc9c88ca701e1f02cb6aba3e4723edb4d3d6d6818"},
}

// TestTableBytesMatchReference pins the on-disk format across the codec
// reuse: every table must equal, byte for byte, what the per-block
// reference encoder produces and what the parent commit wrote. Builder
// writes only the cases at restartInterval; the v1 and restart-4 tables
// come from the reference writer alone and are read back through the
// production reader. Each case builds four tables of different contents
// and sizes back to back, so the later ones run through a pooled deflater
// and decoder that earlier tables have used.
func TestTableBytesMatchReference(t *testing.T) {
	for _, c := range codecCases {
		t.Run(c.name, func(t *testing.T) {
			for seed, n := range []int{1500, 300, 2500, 40} {
				entries := codecEntries(int64(seed+1), n)
				got := refTableBytes(entries, c.opts, c.interval)
				if c.interval == restartInterval {
					if built := buildTableBytes(t, entries, c.opts); !bytes.Equal(built, got) {
						t.Fatalf("seed %d: table of %d bytes differs from the %d-byte reference", seed+1, len(built), len(got))
					}
				}
				if seed == 0 {
					sum := sha256.Sum256(got)
					if h := hex.EncodeToString(sum[:]); h != c.parentSHA {
						t.Fatalf("table differs from the parent commit's: sha256 %s, want %s", h, c.parentSHA)
					}
				}
				checkTableContents(t, got, entries)
			}
		})
	}
}

// TestBlockMaxSeqColumn: every table the Builder writes, with or without
// attributes, records each block's max seq, which need not be its last
// entry's, and reads it back; a table whose meta section predates the
// column answers the table's MaxSeq for every block.
func TestBlockMaxSeqColumn(t *testing.T) {
	entries := codecEntries(3, 1200)
	rng := rand.New(rand.NewSource(3))
	for i, seq := range rng.Perm(len(entries)) {
		entries[i].ik = ikey.Make(ikey.UserKey(entries[i].ik), uint64(seq+1), ikey.KindSet)
	}
	attrs := Options{BlockSize: 1024, Compression: FlateCompression, SecondaryAttrs: []string{"UserID", "CreationTime"}}
	for _, c := range []struct {
		name   string
		data   []byte
		column bool
	}{
		{"v2-attrs", buildTableBytes(t, entries, attrs), true},
		{"v2-no-attrs", buildTableBytes(t, entries, Options{BlockSize: 1024}), true},
		{"v1-attrs", refTableBytes(entries, attrs, 0), false},
		{"restart4-attrs", refTableBytes(entries, attrs, 4), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl, err := OpenTable(bytes.NewReader(c.data), int64(len(c.data)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.HasBlockMaxSeqs() != c.column {
				t.Fatalf("HasBlockMaxSeqs() = %v, want %v", !c.column, c.column)
			}
			var it BlockIter
			midBlock := false
			for i := 0; i < tbl.NumBlocks(); i++ {
				if err := tbl.LoadBlock(&it, i, nil); err != nil {
					t.Fatal(err)
				}
				var blockMax, last uint64
				for it.Next() {
					last = ikey.Seq(it.Key())
					blockMax = max(blockMax, last)
				}
				want := tbl.MaxSeq()
				if c.column {
					want = blockMax
				}
				if got := tbl.BlockMaxSeq(i); got != want {
					t.Fatalf("block %d: BlockMaxSeq = %d, want %d", i, got, want)
				}
				midBlock = midBlock || blockMax != last
			}
			if !midBlock {
				t.Fatal("every block's newest entry is its last: the column is not tested")
			}
		})
	}
}

// TestBlockMaxSeqFarBelow: a block whose max seq lies more than 2^32 − 1
// below its table's answers a bound that distance below MaxSeq — above
// its max seq, so still a bound on every entry.
func TestBlockMaxSeqFarBelow(t *testing.T) {
	const newest = 1<<33 + 5
	entries := []tableEntry{
		{ik: ikey.Make([]byte("a"), 7, ikey.KindSet), val: []byte("old")},
		{ik: ikey.Make([]byte("b"), newest, ikey.KindSet), val: []byte("new")},
	}
	data := buildTableBytes(t, entries, Options{BlockSize: 1})
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumBlocks() != 2 || !tbl.HasBlockMaxSeqs() || tbl.MaxSeq() != newest {
		t.Fatalf("%d blocks, column %v, MaxSeq %d", tbl.NumBlocks(), tbl.HasBlockMaxSeqs(), tbl.MaxSeq())
	}
	if got, want := tbl.BlockMaxSeq(0), uint64(newest-(1<<32-1)); got != want {
		t.Fatalf("BlockMaxSeq(0) = %d, want %d", got, want)
	}
	if got := tbl.BlockMaxSeq(1); got != newest {
		t.Fatalf("BlockMaxSeq(1) = %d, want %d", got, uint64(newest))
	}
}

// checkTableContents reads a table back through Get, a cached iterator
// and a compaction iterator and compares every entry with its input.
func checkTableContents(t testing.TB, data []byte, entries []tableEntry) {
	t.Helper()
	tbl, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), nil, cache.New(1<<20))
	if err != nil {
		t.Error(err)
		return
	}
	for _, compaction := range []bool{false, true} {
		it := tbl.NewIterator(compaction)
		for i, e := range entries {
			if !it.Next() {
				t.Errorf("iterator(compaction=%v) stopped at entry %d of %d: %v", compaction, i, len(entries), it.Err())
				return
			}
			if !bytes.Equal(it.Key(), e.ik) || !bytes.Equal(it.Value(), e.val) {
				t.Errorf("iterator(compaction=%v) entry %d differs", compaction, i)
				return
			}
		}
		if it.Next() || it.Err() != nil {
			t.Errorf("iterator(compaction=%v) ran past the end: %v", compaction, it.Err())
			return
		}
	}
	var sc GetScratch
	for i := 0; i < len(entries); i += 17 {
		_, v, ok, err := tbl.GetWith(&sc, ikey.UserKey(entries[i].ik))
		if err != nil || !ok || !bytes.Equal(v, entries[i].val) {
			t.Errorf("Get of entry %d: ok=%v err=%v", i, ok, err)
			return
		}
	}
}

// TestBlocksAreExactSize pins the block cache's accounting: Put charges
// len(data), so every block that reaches the cache or a Get caller must
// carry no spare capacity.
func TestBlocksAreExactSize(t *testing.T) {
	for _, c := range codecCases {
		t.Run(c.name, func(t *testing.T) {
			data := buildTableBytes(t, codecEntries(1, 1500), c.opts)
			for _, bc := range []*cache.Cache{nil, cache.New(1 << 30)} {
				tbl, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), nil, bc)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tbl.NumBlocks(); i++ {
					raw, err := tbl.readBlock(i, false, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if cap(raw) != len(raw) {
						t.Fatalf("block %d: len %d cap %d", i, len(raw), cap(raw))
					}
					if bc == nil {
						continue
					}
					cached, ok := bc.Get(cache.Key{Table: tbl.ID(), Block: i})
					if !ok || cap(cached) != len(cached) || &cached[0] != &raw[0] {
						t.Fatalf("block %d: cached=%v len %d cap %d", i, ok, len(cached), cap(cached))
					}
				}
				if bc != nil {
					var charged int64
					for i := 0; i < tbl.NumBlocks(); i++ {
						raw, _ := tbl.readBlock(i, false, nil, nil)
						charged += int64(cap(raw))
					}
					if used := bc.Used(); used != charged {
						t.Fatalf("cache charges %d bytes for blocks holding %d", used, charged)
					}
				}
			}
		})
	}
}

// garbageFlateBlock returns a physical block whose CRC is right and whose
// codec byte says flate, over a payload that is not a deflate stream.
func garbageFlateBlock(rng *rand.Rand, n int) []byte {
	payload := make([]byte, n)
	rng.Read(payload)
	payload[0] = 0x07 // final block of reserved type 3: rejected at once
	return sealBlock(payload, FlateCompression)
}

// TestCorruptBlockDoesNotPoisonDecoder: a block that fails to inflate must
// leave the decoder able to decode the next block, and the decoder must go
// back to the pool on the error path.
func TestCorruptBlockDoesNotPoisonDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys, vals := fuzzEntries(rng, 80, 12, 40)
	var bb blockBuilder
	for i := range keys {
		bb.add(keys[i], bytes.Repeat(vals[i], 3))
	}
	stored := refFinish(bb.buf, bb.restarts, true, NoCompression)
	want := stored[:len(stored)-5] // entries + restart trailer
	phys, err := bb.finish(FlateCompression)
	if err != nil {
		t.Fatal(err)
	}
	if Compression(phys[len(phys)-5]) != FlateCompression {
		t.Fatal("test block was not compressed")
	}
	good := append([]byte(nil), phys...)

	d := blockDecoders.Get().(*blockDecoder)
	defer blockDecoders.Put(d)
	var scratch []byte
	for round := 0; round < 4; round++ {
		// A truncated stream fails late, a reserved block type fails at once.
		bad := garbageFlateBlock(rng, 64+round)
		if round%2 == 1 {
			bad = truncatedFlateBlock(good)
		}
		if _, err := d.decodeBlock(bad, &scratch); err == nil {
			t.Fatalf("round %d: garbage inflated without error", round)
		}
		raw, err := d.decodeBlock(good, &scratch)
		if err != nil {
			t.Fatalf("round %d: good block after a corrupt one: %v", round, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("round %d: good block decoded to different bytes", round)
		}
	}

	// The same through readBlock, which returns the decoder to the pool on
	// its error path: a table whose first block is CRC-valid garbage.
	opts := Options{BlockSize: 1024, Compression: FlateCompression}
	data := buildTableBytes(t, codecEntries(1, 300), opts)
	intact, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	bm := intact.blocks[0]
	corrupt := append([]byte(nil), data...)
	copy(corrupt[bm.offset:], garbageFlateBlock(rng, int(bm.size)-5))
	tbl, err := OpenTable(bytes.NewReader(corrupt), int64(len(corrupt)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := tbl.readBlock(0, false, nil, nil); err == nil {
			t.Fatal("garbage block loaded without error")
		}
		got, err := tbl.readBlock(1, false, nil, nil)
		wantBlock, _ := intact.readBlock(1, false, nil, nil)
		if err != nil || !bytes.Equal(got, wantBlock) {
			t.Fatalf("block load after a corrupt one: err=%v", err)
		}
	}
}

// truncatedFlateBlock cuts the deflate stream of a good compressed block
// in half and re-seals it with a valid CRC.
func truncatedFlateBlock(good []byte) []byte {
	payload := good[:len(good)-5]
	return sealBlock(payload[:len(payload)/2], FlateCompression)
}

// TestCodecAllocations gates the allocation counts the reuse is for.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	opts := Options{BlockSize: 4096, Compression: FlateCompression, SecondaryAttrs: []string{"UserID", "CreationTime"}}
	entries := codecEntries(3, 6000)
	for i := range entries { // all compressible, every entry with attributes
		entries[i].val = []byte(fmt.Sprintf(`{"UserID":"u%04d","Text":"lorem ipsum dolor sit amet %d"}`, i%50, i))
		entries[i].attrs = []AttrValue{{Attr: "UserID", Value: fmt.Sprintf("u%04d", i%50)}, {Attr: "CreationTime", Value: fmt.Sprintf("%010d", i)}}
	}
	data := buildTableBytes(t, entries, opts)
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	nb := tbl.NumBlocks()
	if nb < 20 {
		t.Fatalf("want ≥20 blocks, got %d", nb)
	}

	t.Run("readBlock", func(t *testing.T) {
		i := nb / 2
		bm := tbl.blocks[i]
		if Compression(data[bm.offset+uint64(bm.size)-5]) != FlateCompression {
			t.Fatal("test block was not compressed")
		}
		if _, err := tbl.readBlock(i, false, nil, nil); err != nil { // grow the pooled buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := tbl.readBlock(i, false, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("an uncached block load allocates %.0f times, want 1 (the owned output)", allocs)
		}
	})

	t.Run("deflate", func(t *testing.T) {
		raw, err := tbl.readBlock(nb/2, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := deflate(nil, raw)
		allocs := testing.AllocsPerRun(200, func() {
			dst = deflate(dst[:0], raw)
		})
		if allocs != 0 {
			t.Fatalf("deflate into a buffer with room allocates %.0f times, want 0", allocs)
		}
	})

	t.Run("inflate", func(t *testing.T) {
		bm := tbl.blocks[nb/2]
		payload := data[bm.offset : bm.offset+uint64(bm.size)-5]
		inf := new(inflater)
		dst, err := inf.inflate(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if dst, err = inf.inflate(dst[:0], payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("inflate into a buffer with room allocates %.0f times, want 0", allocs)
		}
	})

	t.Run("compaction loadBlock", func(t *testing.T) {
		it := tbl.NewIterator(true)
		for i := 0; i < nb; i++ { // grow the iterator's buffers to the largest block
			if !it.loadBlock(i) {
				t.Fatal(it.Err())
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if !it.loadBlock(i % nb) {
				t.Fatal(it.Err())
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("compaction Iterator.loadBlock allocates %.0f times per block, want 0", allocs)
		}
	})

	t.Run("flushBlock", func(t *testing.T) {
		b := NewBuilder(io.Discard, opts)
		next := 0
		addBlock := func() {
			for {
				e := entries[next]
				next++
				if err := b.Add(e.ik, e.val, e.attrs); err != nil {
					t.Fatal(err)
				}
				if b.block.empty() {
					return
				}
			}
		}
		addBlock() // grows the buffers
		addBlock()
		blocks := nb - 4
		allocs := testing.AllocsPerRun(blocks, addBlock)
		// What the metadata keeps per block: first key, last key, primary
		// bloom, one bloom and one zone map per attribute. The growth of the
		// slices that hold them is amortised below one per block, and
		// deflating allocates nothing.
		if limit := float64(3 + 2*len(opts.SecondaryAttrs)); allocs > limit {
			t.Fatalf("a block's Adds and flushBlock allocate %.0f times, want ≤ %.0f", allocs, limit)
		}
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentBuildAndRead is the concurrent compaction pattern: several
// goroutines build tables and read others back at once, sharing the
// deflater and decoder pools. Every table must match its reference bytes and
// read back whole. Run under -race.
func TestConcurrentBuildAndRead(t *testing.T) {
	const workers = 8
	opts := Options{BlockSize: 1024, Compression: FlateCompression, SecondaryAttrs: []string{"UserID", "CreationTime"}}
	inputs := make([][]tableEntry, workers)
	tables := make([][]byte, workers)
	for w := range inputs {
		inputs[w] = codecEntries(int64(100+w), 400+150*w)
		tables[w] = refTableBytes(inputs[w], opts, restartInterval)
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := buildTableBytes(t, inputs[w], opts); !bytes.Equal(got, tables[w]) {
					t.Errorf("worker %d round %d: built table differs from its reference", w, r)
					return
				}
				other := (w + r + 1) % workers
				checkTableContents(t, tables[other], inputs[other])
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkTableBuild measures building a table of tweet-sized JSON values
// with two indexed attributes: the flush and compaction write path.
func BenchmarkTableBuild(b *testing.B) {
	entries := codecEntries(1, 20000)
	var userBytes int64
	for _, e := range entries {
		userBytes += int64(len(e.ik) + len(e.val))
	}
	for _, bs := range []int{4096, 16384} {
		for _, c := range []struct {
			name  string
			codec Compression
		}{{"flate", FlateCompression}, {"none", NoCompression}} {
			b.Run(fmt.Sprintf("block=%d/%s", bs, c.name), func(b *testing.B) {
				opts := Options{BlockSize: bs, Compression: c.codec, SecondaryAttrs: []string{"UserID", "CreationTime"}}
				b.SetBytes(userBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tb := NewBuilder(io.Discard, opts)
					for _, e := range entries {
						if err := tb.Add(e.ik, e.val, e.attrs); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := tb.Finish(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var benchSink []byte

// BenchmarkEncodeBlock measures deflating the payload of one block of
// workload tweet documents — the block BenchmarkDecodeBlock loads — which
// flush and compaction pay for every block they write. The compress-flate
// sub-benchmark encodes the same payload with the standard library's
// BestSpeed writer, whose bytes deflate reproduces.
func BenchmarkEncodeBlock(b *testing.B) {
	entries := tweetEntries(5000)
	for _, bs := range []int{4096, 16384} {
		data := buildTableBytes(b, entries, Options{BlockSize: bs, Compression: FlateCompression})
		tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := tbl.readBlock(tbl.NumBlocks()/2, false, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			dst := deflate(nil, raw)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				dst = deflate(dst[:0], raw)
			}
			benchSink = dst
		})
		b.Run(fmt.Sprintf("block=%d/compress-flate", bs), func(b *testing.B) {
			var out bytes.Buffer
			fw, err := flate.NewWriter(&out, flate.BestSpeed)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				out.Reset()
				fw.Reset(&out)
				fw.Write(raw)
				if err := fw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeBlock measures one uncached load of a compressed block
// of workload tweet documents from memory: verify, inflate and copy out.
// It is the cost of a block-cache miss without the file read. The
// compress-flate sub-benchmark inflates the same block's payload with the
// standard library's reader, the reference the in-package inflater is
// measured against.
func BenchmarkDecodeBlock(b *testing.B) {
	entries := tweetEntries(5000)
	for _, bs := range []int{4096, 16384} {
		data := buildTableBytes(b, entries, Options{BlockSize: bs, Compression: FlateCompression})
		tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			b.Fatal(err)
		}
		i := tbl.NumBlocks() / 2
		raw, err := tbl.readBlock(i, false, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		bm := tbl.blocks[i]
		payload := data[bm.offset : bm.offset+uint64(bm.size)-5]
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if benchSink, err = tbl.readBlock(i, false, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("block=%d/compress-flate", bs), func(b *testing.B) {
			var src bytes.Reader
			fr := flate.NewReader(&src)
			out := bytes.NewBuffer(make([]byte, 0, 2*bs))
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				src.Reset(payload)
				if err := fr.(flate.Resetter).Reset(&src, nil); err != nil {
					b.Fatal(err)
				}
				out.Reset()
				if _, err := out.ReadFrom(fr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same table's 4 KiB blocks all round, one per op: the whole
	// inflate, and the dynamic-Huffman header (code lengths and table
	// builds) alone. Their difference is the symbol loop.
	blocks := compressedBlocks(b, 4096, len(entries))
	b.Run("block=4096/every-block", func(b *testing.B) {
		inf := new(inflater)
		var dst []byte
		var err error
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if dst, err = inf.inflate(dst[:0], blocks[n%len(blocks)]); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = dst
	})
	b.Run("block=4096/every-block/header", func(b *testing.B) {
		inf := new(inflater)
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			src := blocks[n%len(blocks)]
			bb, nb, pos, _ := refill(src, 0, 0, 0)
			if bb>>1&3 != 2 {
				b.Fatalf("block %d is not dynamic-Huffman", n%len(blocks))
			}
			if _, _, _, ok := inf.readTables(src, bb>>3, nb-3, pos); !ok {
				b.Fatalf("block %d: bad header", n%len(blocks))
			}
		}
	})
}

// TestOverlappingBlocks holds the span OverlappingBlocks finds by binary
// search to the blocks a linear walk of the block index admits: those
// whose last user key is at or after lo and whose first is before hiExcl.
func TestOverlappingBlocks(t *testing.T) {
	entries := codecEntries(5, 900)
	data := buildTableBytes(t, entries, Options{BlockSize: 512})
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumBlocks() < 20 {
		t.Fatalf("%d blocks; want a table of many", tbl.NumBlocks())
	}
	keys := [][]byte{nil, []byte(""), []byte("\xff")}
	for i := 0; i < len(entries); i += 37 {
		uk := ikey.UserKey(entries[i].ik)
		keys = append(keys, uk, append(bytes.Clone(uk), 0))
	}
	for _, lo := range keys {
		for _, hi := range keys {
			wantFirst, wantEnd := -1, -1
			for i := 0; i < tbl.NumBlocks(); i++ {
				first, last := tbl.BlockRange(i)
				if bytes.Compare(ikey.UserKey(last), lo) >= 0 && (hi == nil || bytes.Compare(ikey.UserKey(first), hi) < 0) {
					if wantFirst < 0 {
						wantFirst = i
					}
					wantEnd = i + 1
				}
			}
			first, end := tbl.OverlappingBlocks(lo, hi)
			if wantFirst < 0 {
				if end > first {
					t.Fatalf("[%q, %q): span [%d, %d), want empty", lo, hi, first, end)
				}
			} else if first != wantFirst || end != wantEnd {
				t.Fatalf("[%q, %q): span [%d, %d), want [%d, %d)", lo, hi, first, end, wantFirst, wantEnd)
			}
		}
	}
}
