package sstable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"leveldbpp/internal/ikey"
)

// fuzzEntries generates n sorted internal-key entries from a seeded rng:
// random-length user keys (deduplicated), random values (possibly empty).
func fuzzEntries(rng *rand.Rand, n int, maxKeyLen, maxValLen int) (keys, vals [][]byte) {
	userKeys := map[string]bool{}
	for len(userKeys) < n {
		k := make([]byte, 1+rng.Intn(maxKeyLen))
		rng.Read(k)
		userKeys[string(k)] = true
	}
	uks := make([]string, 0, n)
	for k := range userKeys {
		uks = append(uks, k)
	}
	sort.Strings(uks)
	for i, uk := range uks {
		keys = append(keys, ikey.Make([]byte(uk), uint64(i+1), ikey.KindSet))
		v := make([]byte, rng.Intn(maxValLen+1))
		rng.Read(v)
		vals = append(vals, v)
	}
	return keys, vals
}

// buildRawBlock encodes the entries into one raw (decoded) block payload
// using the given restart interval (<=0 for v1).
func buildRawBlock(t testing.TB, keys, vals [][]byte, interval int) []byte {
	t.Helper()
	bb := refBlock{interval: interval}
	for i := range keys {
		bb.add(keys[i], vals[i])
	}
	phys := bb.finish(NoCompression)
	d := blockDecoders.Get().(*blockDecoder)
	defer blockDecoders.Put(d)
	raw, err := d.decodeBlock(phys, &d.buf.raw)
	if err != nil {
		t.Fatal(err)
	}
	return ownedCopy(raw)
}

// FuzzBlockRoundTrip drives encode→decode→iterate→seek over random keys,
// values and restart intervals. Each input pushes two different blocks
// through one block builder (one flate writer) and one decoder: both must
// come out byte-identical to the per-block reference encoder. Every entry
// must survive the round trip of the builder's block and of the reference
// block at the fuzzed interval (v1 at <= 0); SeekGE must land exactly
// where a reference linear search says, for present keys, absent keys,
// and the extremes.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add(int64(1), 10, 16, 24, 32)
	f.Add(int64(2), 1, 1, 1, 0)
	f.Add(int64(3), 200, 3, 8, 100)
	f.Add(int64(4), 50, 7, 200, 5)
	f.Fuzz(func(t *testing.T, seed int64, n, interval, maxKeyLen, maxValLen int) {
		if n <= 0 || n > 500 || maxKeyLen <= 0 || maxKeyLen > 300 || maxValLen < 0 || maxValLen > 300 {
			t.Skip()
		}
		if interval > 64 {
			t.Skip()
		}
		// One-byte keys only admit 256 distinct values; keep the distinct-key
		// demand far below the space so fuzzEntries' dedup loop terminates.
		if maxKeyLen == 1 && n > 100 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var bb blockBuilder
		d := blockDecoders.Get().(*blockDecoder)
		defer blockDecoders.Put(d)
		var scratch []byte
		for round := 0; round < 2; round++ {
			keys, vals := fuzzEntries(rng, n, maxKeyLen, maxValLen)
			bb.reset()
			ref, other := refBlock{interval: restartInterval}, refBlock{interval: interval}
			for i := range keys {
				bb.add(keys[i], vals[i])
				ref.add(keys[i], vals[i])
				other.add(keys[i], vals[i])
			}
			phys, err := bb.finish(FlateCompression)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(phys, ref.finish(FlateCompression)) {
				t.Fatalf("block %d through the reused codec differs from the reference encoding", round)
			}
			for _, blk := range []struct {
				phys     []byte
				interval int
			}{{phys, restartInterval}, {other.finish(FlateCompression), interval}} {
				raw, err := d.decodeBlock(blk.phys, &scratch)
				if err != nil {
					t.Fatalf("decode of block %d (interval %d): %v", round, blk.interval, err)
				}
				checkBlockRoundTrip(t, rng, raw, keys, vals, blk.interval)
			}
		}
	})
}

func checkBlockRoundTrip(t *testing.T, rng *rand.Rand, raw []byte, keys, vals [][]byte, interval int) {
	var it BlockIter
	if interval > 0 {
		if err := it.initV2(raw); err != nil {
			t.Fatalf("initV2 on freshly built block: %v", err)
		}
	} else {
		it.initV1(raw)
	}

	// Full iteration reproduces every entry in order.
	for i := range keys {
		if !it.Next() {
			t.Fatalf("Next stopped at entry %d of %d: %v", i, len(keys), it.Err())
		}
		if !bytes.Equal(it.Key(), keys[i]) {
			t.Fatalf("entry %d key mismatch", i)
		}
		if !bytes.Equal(it.Value(), vals[i]) {
			t.Fatalf("entry %d value mismatch", i)
		}
	}
	if it.Next() {
		t.Fatal("iterated past the end")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}

	// SeekGE agrees with a reference linear search on present keys,
	// mutated (likely absent) keys, and the extremes.
	targets := make([][]byte, 0, 2*len(keys)+2)
	targets = append(targets, keys...)
	for i := 0; i < len(keys); i += 3 {
		mutated := append([]byte(nil), keys[i]...)
		mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		if ikey.Valid(mutated) {
			targets = append(targets, mutated)
		}
	}
	targets = append(targets,
		ikey.Make(nil, ikey.MaxSeq, ikey.KindSet),                      // before everything
		ikey.Make(bytes.Repeat([]byte{0xff}, 301), 0, ikey.KindDelete)) // after everything
	for _, target := range targets {
		want := sort.Search(len(keys), func(i int) bool { return ikey.Compare(keys[i], target) >= 0 })
		got := it.SeekGE(target)
		if err := it.Err(); err != nil {
			t.Fatalf("SeekGE(%x) errored: %v", target, err)
		}
		if want == len(keys) {
			if got {
				t.Fatalf("SeekGE(%x) found %x past the last entry", target, it.Key())
			}
			continue
		}
		if !got {
			t.Fatalf("SeekGE(%x) missed entry %d", target, want)
		}
		if !bytes.Equal(it.Key(), keys[want]) || !bytes.Equal(it.Value(), vals[want]) {
			t.Fatalf("SeekGE(%x) landed on wrong entry", target)
		}
	}
}

// sealBlock wraps payload as a physical block with the given codec byte
// and a valid CRC, so it passes the checksum and reaches the codec.
func sealBlock(payload []byte, codec Compression) []byte {
	phys := append(append([]byte(nil), payload...), byte(codec))
	return binary.BigEndian.AppendUint32(phys, crc32.Checksum(phys, crcTable))
}

// FuzzBlockIterGarbage feeds arbitrary bytes to the v2 iterator: it must
// reject or iterate without ever panicking, for both Next and SeekGE. The
// same bytes then go to the inflater as a CRC-valid compressed block,
// alternating with a valid block through one decoder: whatever the garbage
// did, the valid block must still decode to the same bytes.
func FuzzBlockIterGarbage(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	keys, vals := fuzzEntries(rng, 40, 12, 20)
	good := buildRawBlock(f, keys, vals, 8)
	var cbuf bytes.Buffer
	fw, err := flate.NewWriter(&cbuf, flate.BestSpeed)
	if err != nil {
		f.Fatal(err)
	}
	fw.Write(good)
	fw.Close()
	goodPhys := sealBlock(cbuf.Bytes(), FlateCompression)
	f.Add(good)
	f.Add(cbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	iterate := func(raw []byte) {
		var it BlockIter
		if err := it.initV2(raw); err != nil {
			return // rejected up front: fine
		}
		for it.Next() {
			_, _ = it.Key(), it.Value()
		}
		it.SeekGE(ikey.Make([]byte("probe"), 1, ikey.KindSet))
		_ = it.Err()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		iterate(raw)

		d := blockDecoders.Get().(*blockDecoder)
		defer blockDecoders.Put(d)
		var scratch []byte
		for round := 0; round < 2; round++ {
			if out, err := d.decodeBlock(sealBlock(raw, FlateCompression), &scratch); err == nil {
				iterate(out)
			}
			out, err := d.decodeBlock(goodPhys, &scratch)
			if err != nil {
				t.Fatalf("valid block after garbage: %v", err)
			}
			if !bytes.Equal(out, good) {
				t.Fatal("valid block after garbage decoded to different bytes")
			}
		}
	})
}

// corruptTrailer rewrites the restart count at the tail of a raw v2 block.
func corruptTrailer(raw []byte, count uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(out[len(out)-4:], count)
	return out
}

func TestBlockRestartCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys, vals := fuzzEntries(rng, 100, 10, 30)
	raw := buildRawBlock(t, keys, vals, 16)
	var it BlockIter
	if err := it.initV2(raw); err != nil {
		t.Fatal(err)
	}
	nRestarts := it.numRestarts
	if nRestarts < 2 {
		t.Fatalf("want ≥2 restarts, got %d", nRestarts)
	}
	probe := keys[len(keys)/2]

	check := func(name string, mutated []byte) {
		t.Helper()
		var bad BlockIter
		err := bad.initV2(mutated)
		if err == nil {
			// Not caught at init: the error must surface via SeekGE/Next,
			// never as a panic or a silently wrong result set.
			bad.SeekGE(probe)
			for bad.Next() {
			}
			err = bad.Err()
		}
		if err == nil {
			t.Fatalf("%s: corruption undetected", name)
		}
	}

	t.Run("truncated restart array", func(t *testing.T) {
		// Chop bytes out of the restart array while keeping the count: the
		// trailer now claims more offsets than the block holds.
		check("truncate", corruptTrailer(raw[:len(raw)-8], uint32(nRestarts)))
	})
	t.Run("restart offset past block end", func(t *testing.T) {
		mutated := append([]byte(nil), raw...)
		off := len(mutated) - 4 - 4*nRestarts // first restart offset slot
		binary.BigEndian.PutUint32(mutated[off:], uint32(len(raw)+100))
		check("offset", mutated)
	})
	t.Run("bad count", func(t *testing.T) {
		check("count-huge", corruptTrailer(raw, 0xffffffff))
	})
	t.Run("count larger than array", func(t *testing.T) {
		check("count-off-by-some", corruptTrailer(raw, uint32(nRestarts+5)))
	})
	t.Run("non-increasing offsets", func(t *testing.T) {
		if nRestarts >= 2 {
			mutated := append([]byte(nil), raw...)
			base := len(mutated) - 4 - 4*nRestarts
			// Swap the first two offsets so they decrease.
			first := binary.BigEndian.Uint32(mutated[base:])
			second := binary.BigEndian.Uint32(mutated[base+4:])
			binary.BigEndian.PutUint32(mutated[base:], second)
			binary.BigEndian.PutUint32(mutated[base+4:], first)
			check("order", mutated)
		}
	})
	t.Run("restart with nonzero shared prefix", func(t *testing.T) {
		// Point a restart offset at a non-restart entry (shared > 0):
		// restartKey must reject it during SeekGE. Sequential keys guarantee
		// every non-restart entry shares a prefix with its predecessor.
		var seqKeys, seqVals [][]byte
		for i := 0; i < 100; i++ {
			seqKeys = append(seqKeys, ikey.Make([]byte(fmt.Sprintf("key%05d", i)), uint64(i+1), ikey.KindSet))
			seqVals = append(seqVals, []byte("v"))
		}
		raw2 := buildRawBlock(t, seqKeys, seqVals, 16)
		var ref BlockIter
		if err := ref.initV2(raw2); err != nil {
			t.Fatal(err)
		}
		n2 := ref.numRestarts
		if n2 < 2 {
			t.Fatalf("want ≥2 restarts, got %d", n2)
		}
		// Locate the second entry's offset by decoding one entry; it shares
		// "key0000" with the first.
		if !ref.Next() {
			t.Fatal("empty block")
		}
		secondOff := ref.off
		shared, _ := binary.Uvarint(ref.data[secondOff:])
		if shared == 0 {
			t.Fatal("test setup broken: sequential keys must share a prefix")
		}
		mutated := append([]byte(nil), raw2...)
		base := len(mutated) - 4 - 4*n2
		// Restart 1 now points mid-interval; offsets stay increasing
		// (secondOff > restart 0's offset of 0) so init passes and the
		// defect is hit at seek time.
		binary.BigEndian.PutUint32(mutated[base+4:], uint32(secondOff))
		var bad BlockIter
		if err := bad.initV2(mutated); err != nil {
			return // also acceptable: rejected at init
		}
		for _, k := range seqKeys {
			bad.SeekGE(k)
			if bad.Err() != nil {
				return // detected
			}
		}
		t.Fatal("mid-interval restart offset never detected")
	})
}

// TestBlockIterKeyBufferReuse verifies the allocation-free contract: a
// reused iterator must not grow a fresh key buffer per block.
func TestBlockIterKeyBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys, vals := fuzzEntries(rng, 64, 10, 10)
	raw := buildRawBlock(t, keys, vals, 16)
	var it BlockIter
	if err := it.initV2(raw); err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	capAfterFirst := cap(it.key)
	allocs := testing.AllocsPerRun(50, func() {
		if err := it.initV2(raw); err != nil {
			t.Fatal(err)
		}
		for it.Next() {
		}
	})
	if allocs > 0 {
		t.Fatalf("reused BlockIter allocates %.1f per block pass", allocs)
	}
	if cap(it.key) != capAfterFirst {
		t.Fatalf("key buffer reallocated: cap %d → %d", capAfterFirst, cap(it.key))
	}
}

// TestGetWithAllocationFree verifies the point-read path allocates nothing
// in the steady state when the caller reuses a scratch.
func TestGetWithAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	var buf bytes.Buffer
	b := NewBuilder(&buf, Options{BlockSize: 4096, BitsPerKey: 10, Compression: NoCompression})
	const n = 2000
	for i := 0; i < n; i++ {
		ik := ikey.Make([]byte(fmt.Sprintf("t%08d", i)), uint64(i+1), ikey.KindSet)
		if err := b.Add(ik, []byte("value-payload-for-alloc-test"), nil); err != nil {
			t.Fatal(err)
		}
	}
	size, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenTable(bytes.NewReader(buf.Bytes()), size, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sc GetScratch
	key := make([]byte, 0, 16)
	i := 0
	// Warm the scratch buffers once.
	if _, _, ok, err := tbl.GetWith(&sc, []byte("t00000000")); !ok || err != nil {
		t.Fatalf("warmup get: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		key = append(key[:0], []byte(fmt.Sprintf("t%08d", i%n))...)
		_, _, ok, err := tbl.GetWith(&sc, key)
		if !ok || err != nil {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		i++
	})
	// fmt.Sprintf accounts for ~2 allocations and the table has no block
	// cache, so every Get loads a block into one owned copy; the read path
	// itself must add none beyond that.
	if allocs > 3 {
		t.Fatalf("GetWith steady state allocates %.1f per call", allocs)
	}
}
