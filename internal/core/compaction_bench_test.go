package core

import (
	"fmt"
	"testing"
)

// benchCompactionOptions sizes the engine so one CompactAll performs a
// large multi-input merge: the L0 trigger is lifted far above the flush
// count, so the timed section is purely the compaction merge working
// through a stack of overlapping L0 tables (plus the mirrored index-table
// compaction for stand-alone kinds).
func benchCompactionOptions(kind IndexKind) Options {
	opts := smallOptions(kind)
	opts.L0CompactionTrigger = 1 << 20 // never compact inline; CompactAll does it all
	return opts
}

// BenchmarkCompactionThroughput measures full-compaction wall time over a
// fixed pre-built LSM shape, for the primary-only kind and for Lazy (whose
// compactions also merge posting lists through the job's Merger fork).
// bytes/op is the primary+index footprint merged per iteration, so MB/s
// compares across kinds. EXPERIMENTS.md "Measuring compaction
// parallelism" records what the retired parallel merge measured here.
func BenchmarkCompactionThroughput(b *testing.B) {
	const docs = 3000
	for _, kind := range []IndexKind{IndexNone, IndexLazy} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := Open(b.TempDir(), benchCompactionOptions(kind))
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < docs; j++ {
					user := fmt.Sprintf("u%03d", j%97)
					if err := db.Put(fmt.Sprintf("t%07d", j), tweetDoc(user, 1000+j, "compaction throughput benchmark tweet body")); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				primary, index, err := db.DiskUsage()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(primary + index)
				b.StartTimer()
				if err := db.CompactAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
