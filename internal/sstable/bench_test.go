package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// benchTable builds a 10k-entry table with ~50-byte values (≈64 entries
// per 4 KiB block) at the given block size and restart interval (<= 0:
// the seed's v1 linear blocks, from the reference writer).
func benchTable(tb testing.TB, blockSize, interval int, stats *metrics.IOStats) (*Table, int) {
	tb.Helper()
	const n = 10000
	val := bytes.Repeat([]byte("v"), 50)
	entries := make([]tableEntry, n)
	for i := range entries {
		entries[i] = tableEntry{ik: ikey.Make([]byte(fmt.Sprintf("t%08d", i)), uint64(i+1), ikey.KindSet), val: val}
	}
	data := formatTableBytes(tb, entries, Options{BlockSize: blockSize, BitsPerKey: 10, Compression: NoCompression}, interval)
	t, err := OpenTable(bytes.NewReader(data), int64(len(data)), stats)
	if err != nil {
		tb.Fatal(err)
	}
	return t, n
}

var benchFormats = []struct {
	name     string
	interval int
}{
	{"linear", 0},                  // v1: whole-block scan (seed behaviour)
	{"restart16", restartInterval}, // v2: binary seek over restart points
}

var benchBlockSizes = []int{4096, 16384, 65536}

// BenchmarkTableGet compares point reads through the v1 linear in-block
// scan against the v2 restart-point binary seek, at three block sizes.
// decodes/get (from the EntriesDecoded counter) is the paper-facing
// metric: it counts prefix-decoded entries per probe and is what shrinks
// when the restart seek skips intervals.
func BenchmarkTableGet(b *testing.B) {
	for _, bs := range benchBlockSizes {
		for _, f := range benchFormats {
			b.Run(fmt.Sprintf("block=%d/%s", bs, f.name), func(b *testing.B) {
				var stats metrics.IOStats
				tbl, n := benchTable(b, bs, f.interval, &stats)
				var sc GetScratch
				keys := make([][]byte, n)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("t%08d", i))
				}
				before := stats.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, ok, err := tbl.GetWith(&sc, keys[i%n])
					if err != nil || !ok {
						b.Fatalf("get: ok=%v err=%v", ok, err)
					}
				}
				b.StopTimer()
				d := stats.Snapshot().Sub(before)
				b.ReportMetric(d.EntriesDecodedPerGet(), "decodes/get")
			})
		}
	}
}

// BenchmarkTableGetInflate is the point read the uncached workloads
// make: GetWith on uniformly random keys of a flate-compressed table of
// workload tweets in 4 KiB blocks, opened without a block cache, so each
// read loads, inflates and searches one block. BenchmarkTableGet's tables
// are stored raw and cannot show the inflate.
func BenchmarkTableGetInflate(b *testing.B) {
	entries := tweetEntries(5000)
	data := buildTableBytes(b, entries, Options{BlockSize: 4096, BitsPerKey: 10, Compression: FlateCompression})
	var stats metrics.IOStats
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), &stats)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 1<<14)
	for i := range keys {
		keys[i] = ikey.UserKey(entries[rng.Intn(len(entries))].ik)
	}
	var sc GetScratch
	before := stats.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, ok, err := tbl.GetWith(&sc, keys[i%len(keys)])
		if err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
	b.StopTimer()
	d := stats.Snapshot().Sub(before)
	b.ReportMetric(d.EntriesDecodedPerGet(), "decodes/get")
	b.ReportMetric(float64(d.BlockReads)/float64(b.N), "blocks/get")
}

// BenchmarkSeekGE measures positioning a table iterator at a random key:
// the index locates the block, then the in-block step is either a linear
// scan from the block head (v1) or a restart-point binary seek (v2).
func BenchmarkSeekGE(b *testing.B) {
	for _, bs := range benchBlockSizes {
		for _, f := range benchFormats {
			b.Run(fmt.Sprintf("block=%d/%s", bs, f.name), func(b *testing.B) {
				var stats metrics.IOStats
				tbl, n := benchTable(b, bs, f.interval, &stats)
				it := tbl.NewIterator(true)
				seeks := make([][]byte, n)
				for i := range seeks {
					seeks[i] = ikey.SeekKey([]byte(fmt.Sprintf("t%08d", i)))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !it.SeekGE(seeks[i%n]) {
						b.Fatalf("seek %d missed", i)
					}
				}
				b.StopTimer()
				if err := it.Err(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestRestartSeekDecodesFewer pins the PR's acceptance criterion: at the
// default 4 KiB block size the restart-point seek must decode at least 2×
// fewer entries per GET than the v1 linear scan.
func TestRestartSeekDecodesFewer(t *testing.T) {
	perGet := func(interval int) float64 {
		var stats metrics.IOStats
		tbl, n := benchTable(t, 4096, interval, &stats)
		var sc GetScratch
		before := stats.Snapshot()
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("t%08d", i))
			_, _, ok, err := tbl.GetWith(&sc, key)
			if err != nil || !ok {
				t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		return stats.Snapshot().Sub(before).EntriesDecodedPerGet()
	}
	linear := perGet(0)
	restart := perGet(restartInterval)
	t.Logf("decodes/get: linear=%.2f restart=%.2f (%.1fx)", linear, restart, linear/restart)
	if restart <= 0 {
		t.Fatal("restart path decoded nothing; counter broken?")
	}
	if linear < 2*restart {
		t.Fatalf("restart seek not ≥2x better: linear=%.2f restart=%.2f", linear, restart)
	}
}
