package postings

import (
	"fmt"
	"testing"
)

// benchFragments builds nFrags fragments of size entries each, written by
// encode, newest-first within each fragment and across fragments
// (fragment 0 carries the highest sequence numbers), with disjoint
// primary keys — the shape the Lazy index's strata hand to LOOKUP and
// compaction.
func benchFragments(nFrags, size int, encode func(List) []byte) [][]byte {
	var frags [][]byte
	seq := uint64(nFrags*size + 1)
	for fr := 0; fr < nFrags; fr++ {
		l := make(List, size)
		for i := range l {
			seq--
			l[i] = Entry{Key: fmt.Sprintf("t%07d", fr*size+i), Seq: seq}
		}
		frags = append(frags, encode(l))
	}
	return frags
}

// BenchmarkPostingsMerge is the Lazy LOOKUP / compaction decode+merge in
// isolation: a 4-way merge of size-entry fragments into a reused output
// buffer, from v1 (seed JSON) or v2 (binary varint) inputs; the output
// is v2 either way.
func BenchmarkPostingsMerge(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		for _, f := range encoders {
			b.Run(fmt.Sprintf("entries=%d/%s", size, f.name), func(b *testing.B) {
				frags := benchFragments(4, size, f.encode)
				var sc MergeScratch
				var out []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					out, err = sc.Merge(out[:0], frags, false)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMergeManyFragments is a flush's merge of a hot Lazy key: one
// one-entry fragment per blind PUT, newest first, merged into a reused
// output buffer through the heap of cursors.
func BenchmarkMergeManyFragments(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("fragments=%d", n), func(b *testing.B) {
			frags := benchFragments(n, 1, func(l List) []byte { return AppendList(nil, l) })
			var sc MergeScratch
			var out []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = sc.Merge(out[:0], frags, false)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
