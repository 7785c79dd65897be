package core

import (
	"fmt"
	"testing"
)

// benchPostingsOptions sizes the engine so the benchmarks measure the
// posting-list codec, not flush/compaction churn: a large MemTable keeps
// the hot lists memory-resident across iterations.
func benchPostingsOptions(kind IndexKind) Options {
	opts := smallOptions(kind)
	opts.MemTableBytes = 16 << 20
	return opts
}

// BenchmarkEagerPut measures the Eager read-modify-write at a fixed
// posting-list size: the benchmark key overwrites itself, so AppendAdd
// drops the superseded entry and the list holds steady at size entries.
func BenchmarkEagerPut(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			db, err := Open(b.TempDir(), benchPostingsOptions(IndexEager))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			doc := tweetDoc("u-bench", 1, "eager put benchmark tweet")
			for i := 0; i < size-1; i++ {
				if err := db.Put(fmt.Sprintf("t%07d", i), doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put("t-bench", doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyLookup measures LOOKUP top-10 against a single user whose
// merged fragment holds size entries: the cursor streams the v2 list and
// stops decoding once K candidates are valid.
func BenchmarkLazyLookup(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			db, err := Open(b.TempDir(), benchPostingsOptions(IndexLazy))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < size; i++ {
				doc := tweetDoc("u-bench", 1000+i, "lazy lookup benchmark tweet")
				if err := db.Put(fmt.Sprintf("t%07d", i), doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Lookup("UserID", "u-bench", 10)
				if err != nil {
					b.Fatal(err)
				}
				if want := min(10, size); len(res) != want {
					b.Fatalf("got %d results, want %d", len(res), want)
				}
			}
		})
	}
}
