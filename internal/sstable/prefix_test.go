package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"leveldbpp/internal/cache"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// prefixEntries returns n tweet entries in table order with some history:
// every fifth key also keeps an older version, and every eleventh key's
// newest version is a tombstone.
func prefixEntries(n int) []tableEntry {
	var out []tableEntry
	for i, e := range tweetEntries(n) {
		user := ikey.UserKey(e.ik)
		seq := uint64(2*i + 2)
		if i%11 == 0 {
			out = append(out, tableEntry{ik: ikey.Make(user, seq, ikey.KindDelete)})
		} else {
			out = append(out, tableEntry{ik: ikey.Make(user, seq, ikey.KindSet), val: e.val, attrs: e.attrs})
		}
		if i%5 == 0 {
			out = append(out, tableEntry{ik: ikey.Make(user, seq-1, ikey.KindSet), val: []byte(fmt.Sprintf("old-%d", i))})
		}
	}
	return out
}

// prefixKeys returns every user key of entries and, after each, an absent
// key that sorts before the next one.
func prefixKeys(entries []tableEntry) [][]byte {
	var keys [][]byte
	for i, e := range entries {
		user := ikey.UserKey(e.ik)
		if i > 0 && bytes.Equal(user, ikey.UserKey(entries[i-1].ik)) {
			continue
		}
		keys = append(keys, user, append(append([]byte(nil), user...), 0))
	}
	return keys
}

type pointAnswer struct {
	ik, value []byte
	ok        bool
}

// readPoints reads keys through sc, which a batch hints with the keys
// after each, and returns the answers.
func readPoints(tbl *Table, sc *GetScratch, keys [][]byte, batch bool) ([]pointAnswer, error) {
	out := make([]pointAnswer, len(keys))
	for j, k := range keys {
		if batch {
			sc.Later = keys[j+1:]
		}
		ik, v, ok, err := tbl.GetWith(sc, k)
		if err != nil {
			return nil, fmt.Errorf("GetWith(%q): %w", k, err)
		}
		out[j] = pointAnswer{append([]byte(nil), ik...), v, ok}
	}
	return out, nil
}

// diffPoints describes the first answer of got that differs from want's.
func diffPoints(keys [][]byte, got, want []pointAnswer) error {
	for j := range keys {
		g, w := got[j], want[j]
		if g.ok != w.ok || !bytes.Equal(g.ik, w.ik) || !bytes.Equal(g.value, w.value) {
			return fmt.Errorf("key %q = (%x, %q, %v), whole block (%x, %q, %v)", keys[j], g.ik, g.value, g.ok, w.ik, w.value, w.ok)
		}
	}
	return nil
}

// samePoints reads keys from tbl through sc and from whole, a cached copy
// of it, through a fresh scratch, and fails t unless the answers agree.
func samePoints(t *testing.T, what string, tbl *Table, sc *GetScratch, whole *Table, keys [][]byte, batch bool) {
	t.Helper()
	got, err := readPoints(tbl, sc, keys, batch)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := readPoints(whole, &GetScratch{}, keys, batch)
	if err != nil {
		t.Fatalf("%s, whole block: %v", what, err)
	}
	if err := diffPoints(keys, got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// prefixRounds returns the reads TestGetPrefixMatchesWholeBlock makes:
// each key alone, and sorted batches, runs of neighbours and scatters.
func prefixRounds(keys [][]byte, rng *rand.Rand) (singles, batches [][][]byte) {
	for _, k := range keys {
		singles = append(singles, [][]byte{k})
	}
	batches = append(batches, keys)
	for r := 0; r < 60; r++ {
		n := 1 + rng.Intn(40)
		if r%2 == 0 {
			start := rng.Intn(len(keys) - n)
			batches = append(batches, keys[start:start+n])
			continue
		}
		picked := map[int]bool{}
		for len(picked) < n {
			picked[rng.Intn(len(keys))] = true
		}
		var b [][]byte
		for j := range picked {
			b = append(b, keys[j])
		}
		sort.Slice(b, func(i, j int) bool { return bytes.Compare(b[i], b[j]) < 0 })
		batches = append(batches, b)
	}
	return singles, batches
}

// TestGetPrefixMatchesWholeBlock reads a compressed tweet table without a
// block cache, where a point read inflates a block only up to the entry it
// needs, and the same table with one, where it inflates and searches the
// whole block. Every present key, and an absent key after each, read alone
// and in sorted batches through the batch hint, must give the same
// answers, and the uncached table must read as many blocks as the cached
// one loads (reads plus hits): a batch still reads each block once.
func TestGetPrefixMatchesWholeBlock(t *testing.T) {
	entries := prefixEntries(1200)
	keys := prefixKeys(entries)
	for _, bs := range []int{512, 1024, 4096} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			data := buildTableBytes(t, entries, Options{BlockSize: bs, BitsPerKey: 10, Compression: FlateCompression})
			var plainStats, cachedStats metrics.IOStats
			plain, err := OpenTable(bytes.NewReader(data), int64(len(data)), &plainStats)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), &cachedStats, cache.New(64<<20))
			if err != nil {
				t.Fatal(err)
			}
			singles, batches := prefixRounds(keys, rand.New(rand.NewSource(int64(bs))))
			for _, round := range []struct {
				name  string
				reads [][][]byte
				batch bool
			}{{"single", singles, false}, {"batch", batches, true}} {
				for _, ks := range round.reads {
					p0, c0 := plainStats.Snapshot(), cachedStats.Snapshot()
					samePoints(t, round.name, plain, &GetScratch{}, cached, ks, round.batch)
					p, c := plainStats.Snapshot().Sub(p0), cachedStats.Snapshot().Sub(c0)
					if p.BlockReads != c.BlockReads+c.CacheHits {
						t.Fatalf("%s of %d keys from %q: %d block reads, whole blocks %d",
							round.name, len(ks), ks[0], p.BlockReads, c.BlockReads+c.CacheHits)
					}
				}
			}
		})
	}
}

// TestGetPastPrefixRereads reads, through one scratch and with no batch
// hint, a block's first key and then every later key of the block: the
// first read keeps only a prefix, so the next key past it reads the block
// again, this time up to its last key, and every answer is still right.
func TestGetPastPrefixRereads(t *testing.T) {
	entries := prefixEntries(400)
	data := buildTableBytes(t, entries, Options{BlockSize: 4096, BitsPerKey: 10, Compression: FlateCompression})
	var stats metrics.IOStats
	plain, err := OpenTable(bytes.NewReader(data), int64(len(data)), &stats)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), nil, cache.New(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	first, last := plain.BlockRange(1)
	var inBlock [][]byte
	for _, k := range prefixKeys(entries) {
		if bytes.Compare(k, ikey.UserKey(first)) >= 0 && bytes.Compare(k, ikey.UserKey(last)) < 0 {
			inBlock = append(inBlock, k)
		}
	}
	if len(inBlock) < 6 {
		t.Fatalf("block 1 holds %d keys", len(inBlock))
	}
	// A key in the middle keeps a prefix that ends at its entry.
	whole, err := plain.readBlock(1, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mid GetScratch
	key := inBlock[len(inBlock)/2&^1] // a present key
	if _, _, ok, err := plain.GetWith(&mid, key); err != nil || !ok {
		t.Fatalf("GetWith(%q) = %v, %v", key, ok, err)
	}
	if !mid.blkPrefix || len(mid.blk) >= len(whole)-4 {
		t.Fatalf("a read of %q kept %d bytes of a %d-byte block (prefix %v)", key, len(mid.blk), len(whole), mid.blkPrefix)
	}
	var sc GetScratch
	before := stats.Snapshot()
	samePoints(t, "ascending", plain, &sc, cached, inBlock, false)
	if reads := stats.Snapshot().Sub(before).BlockReads; reads != 2 {
		t.Fatalf("%d ascending keys of one block read it %d times, want 2: a prefix, then up to its last key", len(inBlock), reads)
	}
	// Back down: each key is inside the prefix the last read kept.
	down := make([][]byte, len(inBlock))
	for j := range inBlock {
		down[j] = inBlock[len(inBlock)-1-j]
	}
	before = stats.Snapshot()
	samePoints(t, "descending", plain, &sc, cached, down, false)
	if reads := stats.Snapshot().Sub(before).BlockReads; reads != 0 {
		t.Fatalf("descending keys inside the held prefix read %d blocks, want 0", reads)
	}
}

// corruptTail rewrites compressed block i of the table data in place, at
// the same size and with a valid CRC: a stored deflate block holding the
// first bytes of its payload, then a block of the invalid type 3.
// It returns how many payload bytes the stored block holds.
func corruptTail(t *testing.T, data []byte, tbl *Table, i int) int {
	t.Helper()
	raw, err := tbl.readBlock(i, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bm := tbl.blocks[i]
	phys := data[bm.offset : bm.offset+uint64(bm.size)]
	payload := phys[:len(phys)-5]
	if Compression(phys[len(phys)-5]) != FlateCompression {
		t.Fatalf("block %d is stored", i)
	}
	n := len(payload) - 6
	stream := []byte{0} // not final, stored, padded to the byte
	stream = binary.LittleEndian.AppendUint16(stream, uint16(n))
	stream = binary.LittleEndian.AppendUint16(stream, ^uint16(n))
	stream = append(stream, raw[:n]...)
	stream = append(stream, 7) // final, type 3
	copy(payload, stream)
	binary.BigEndian.PutUint32(phys[len(phys)-4:], crc32.Checksum(phys[:len(phys)-4], crcTable))
	return n
}

// TestGetPrefixSkipsCorruptTail: a point read checks the CRC of the whole
// block but decodes no further than its key, so a CRC-valid block whose
// deflate stream is corrupt after the key answers a key before the
// corruption. A key after it, a cached read and a whole-table iteration,
// which inflate the block whole, report the corruption.
func TestGetPrefixSkipsCorruptTail(t *testing.T) {
	entries := prefixEntries(400)
	data := buildTableBytes(t, entries, Options{BlockSize: 4096, BitsPerKey: 10, Compression: FlateCompression})
	good, err := OpenTable(bytes.NewReader(bytes.Clone(data)), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	const blk = 2
	kept := corruptTail(t, data, good, blk)
	plain, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := plain.BlockRange(blk)
	if kept < 300 {
		t.Fatalf("the stored block keeps only %d bytes", kept)
	}
	key := ikey.UserKey(first)
	ik, v, ok, err := plain.GetWith(&GetScratch{}, key)
	wik, wv, wok, werr := good.GetWith(&GetScratch{}, key)
	if err != nil || werr != nil || !ok || ok != wok || !bytes.Equal(ik, wik) || !bytes.Equal(v, wv) {
		t.Fatalf("GetWith(%q) before the corruption = (%x, %q, %v, %v), intact table (%x, %q, %v, %v)", key, ik, v, ok, err, wik, wv, wok, werr)
	}
	if _, _, _, err := plain.GetWith(&GetScratch{}, ikey.UserKey(last)); err == nil {
		t.Fatalf("GetWith of the block's last key read past the corruption without an error")
	}
	cached, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), nil, cache.New(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cached.GetWith(&GetScratch{}, key); err == nil {
		t.Fatal("a cached read inflated the corrupt block without an error")
	}
	it := plain.NewIterator(false)
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("a whole-table iteration missed the corrupt deflate tail")
	}
}

// TestGetPrefixConcurrent reads one uncached compressed table from several
// goroutines at once, alone and in sorted batches, each through its own
// scratch: the pooled decoders keep the paused inflaters apart, and every
// answer is the whole-block one. Run under -race.
func TestGetPrefixConcurrent(t *testing.T) {
	entries := prefixEntries(600)
	keys := prefixKeys(entries)
	data := buildTableBytes(t, entries, Options{BlockSize: 2048, BitsPerKey: 10, Compression: FlateCompression})
	plain, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := OpenTableCached(bytes.NewReader(data), int64(len(data)), nil, cache.New(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	want, err := readPoints(cached, &GetScratch{}, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < 20; r++ {
				start := rng.Intn(len(keys) - 30)
				ks := keys[start : start+1+rng.Intn(30)]
				got, err := readPoints(plain, &GetScratch{}, ks, r%2 == 0)
				if err == nil {
					err = diffPoints(ks, got, want[start:start+len(ks)])
				}
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
