package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// listEncoders writes a posting list in each format a merge reads: the
// seed's JSON (v1) and v2.
var listEncoders = []struct {
	name   string
	encode func(postings.List) []byte
}{
	{"v1", func(l postings.List) []byte {
		b, err := json.Marshal(l)
		if err != nil {
			panic(err) // a List of plain structs cannot fail to marshal
		}
		return b
	}},
	{"v2", func(l postings.List) []byte { return postings.AppendList(nil, l) }},
}

// canonical sorts a list into a deterministic order for set comparison
// (the reference postings.Merge's sort is unstable for equal seqs).
func canonical(l postings.List) postings.List {
	out := append(postings.List(nil), l...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq > out[j].Seq
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return !out[i].Del && out[j].Del
	})
	return out
}

// mergeFresh is lazyMerger.merge, the heap drain without the salvage, on
// a fresh merger.
func mergeFresh(values [][]byte, bottom bool) ([]byte, error) {
	var m lazyMerger
	return m.merge(values, bottom)
}

// mergeLinear is the oracle for the heap drain: it primes a cursor per
// fragment and merges them by a linear max-scan, the cursor with the
// highest current seq next, ties to the earlier fragment; the first entry
// of each primary key wins.
func mergeLinear(values [][]byte, bottom bool) ([]byte, error) {
	var curs []*postings.Cursor
	for _, v := range values {
		c := new(postings.Cursor)
		if err := c.Prime(v); err != nil {
			return nil, err
		}
		if c.Next() {
			curs = append(curs, c)
		}
	}
	seen := map[string]bool{}
	out, prev := []byte{postings.MagicV2}, uint64(0)
	for len(curs) > 0 {
		best := 0
		for i := 1; i < len(curs); i++ {
			if curs[i].Seq() > curs[best].Seq() {
				best = i
			}
		}
		c := curs[best]
		if key := string(c.Key()); !seen[key] {
			seen[key] = true
			if !(bottom && c.Del()) {
				out, prev = postings.AppendEntry(out, prev, c.Key(), c.Seq(), c.Del())
			}
		}
		if !c.Next() {
			curs = append(curs[:best], curs[best+1:]...)
		}
	}
	return out, nil
}

// checkMergeMatches merges values through the heap drain and the linear
// oracle, which must give the same bytes, and holds the decoded result to
// the reference postings.Merge of lists.
func checkMergeMatches(t testing.TB, lists []postings.List, values [][]byte, bottom bool) {
	t.Helper()
	got, err := mergeFresh(values, bottom)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := mergeLinear(values, bottom)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, linear) {
		t.Fatalf("bottom=%v: heap merge %x, linear scan %x", bottom, got, linear)
	}
	dec, err := postings.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dec); i++ {
		if dec[i].Seq > dec[i-1].Seq {
			t.Fatalf("merge output not newest first: %+v", dec)
		}
	}
	if want := canonical(postings.Merge(lists, bottom)); !reflect.DeepEqual(canonical(dec), want) {
		t.Fatalf("bottom=%v: merged %+v, want %+v", bottom, dec, want)
	}
}

// TestMergeStreamsMatchesMerge merges two overlapping fragments in all
// four format combinations: the result is the reference Merge's.
func TestMergeStreamsMatchesMerge(t *testing.T) {
	newer := postings.List{{Key: "t5", Seq: 50}, {Key: "t2", Seq: 42, Del: true}, {Key: "t1", Seq: 25}}
	older := postings.List{{Key: "t2", Seq: 10}, {Key: "t1", Seq: 8}, {Key: "t0", Seq: 2}}
	for _, bottom := range []bool{false, true} {
		for _, f1 := range listEncoders {
			for _, f2 := range listEncoders {
				checkMergeMatches(t, []postings.List{newer, older}, [][]byte{f1.encode(newer), f2.encode(older)}, bottom)
			}
		}
	}
}

// TestMergeManyFragmentsMatchesMerge merges a few and many (more than
// 64) fragments, with interleaved seqs and a key repeated at one seq in
// several fragments (deleted in some): the heap must give the linear
// scan's bytes, and the reference Merge's entries — the earlier
// fragment's entry winning each tie.
func TestMergeManyFragmentsMatchesMerge(t *testing.T) {
	for _, n := range []int{2, 9, 65, 300} {
		frags := make([]postings.List, n)
		for i := range frags {
			for j := 0; j < 1+i%4; j++ {
				seq := uint64(10*n - 3*j*n/2 - i%(3*n/2))
				frags[i] = append(frags[i], postings.Entry{Key: fmt.Sprintf("t%03d", (i*7+j)%97), Seq: seq})
			}
			// Tied entries: the same key at the same seq in every
			// fragment, deleted in the odd ones.
			frags[i] = append(frags[i], postings.Entry{Key: "tie", Seq: 1, Del: i%2 == 1})
		}
		var values [][]byte
		for _, f := range frags {
			values = append(values, postings.AppendList(nil, f))
		}
		for _, bottom := range []bool{false, true} {
			checkMergeMatches(t, frags, values, bottom)
		}
	}
}

// TestMergeStreamsUnsortedFallback merges the input that once took the
// decode-all fallback, a fragment whose seqs rise: the heap drain must
// fail with ErrCorrupt, in either format and wherever the fragment sits,
// and the same fragments in newest-first order must merge as the
// reference Merge does.
func TestMergeStreamsUnsortedFallback(t *testing.T) {
	unsorted := postings.List{{Key: "a", Seq: 1}, {Key: "b", Seq: 9}, {Key: "a", Seq: 5}}
	other := postings.List{{Key: "b", Seq: 3}, {Key: "c", Seq: 2}}
	for _, fm := range listEncoders {
		for _, values := range [][][]byte{
			{fm.encode(unsorted), postings.AppendList(nil, other)},
			{postings.AppendList(nil, other), fm.encode(unsorted)},
		} {
			if _, err := mergeFresh(values, false); !errors.Is(err, postings.ErrCorrupt) {
				t.Fatalf("%s: merge err = %v, want %v", fm.name, err, postings.ErrCorrupt)
			}
		}
	}
	sorted := postings.List{unsorted[1], unsorted[2], unsorted[0]}
	checkMergeMatches(t, []postings.List{sorted, other},
		[][]byte{postings.AppendList(nil, sorted), postings.AppendList(nil, other)}, false)
}

// TestMergeStreamsCorruptFragmentFails: a truncated or undecodable
// fragment fails the heap drain (Merge then salvages, see
// TestLazyMergeSalvage).
func TestMergeStreamsCorruptFragmentFails(t *testing.T) {
	good := postings.AppendList(nil, postings.List{{Key: "t2", Seq: 9}, {Key: "t1", Seq: 3, Del: true}})
	for _, bad := range [][]byte{{postings.MagicV2, 0x04}, []byte("{not json")} {
		if _, err := mergeFresh([][]byte{good, bad}, false); err == nil {
			t.Fatalf("merge accepted corrupt fragment %x", bad)
		}
	}
}

// TestLazyMergerReuse merges through one merger three times: each result
// and the decode work it books are the same.
func TestLazyMergerReuse(t *testing.T) {
	m := &lazyMerger{st: &metrics.IOStats{}}
	a := postings.AppendSingle(nil, "x", 4, false)
	b := postings.AppendSingle(nil, "y", 2, false)
	for i := 0; i < 3; i++ {
		before := m.st.Snapshot()
		out, keep := m.Merge(nil, [][]byte{a, b}, false)
		got, err := postings.Decode(out)
		if err != nil || !keep || len(got) != 2 || got[0].Key != "x" || got[1].Key != "y" {
			t.Fatalf("iteration %d: %+v keep=%v, %v", i, got, keep, err)
		}
		d := m.st.Snapshot().Sub(before)
		if d.FragmentsMerged != 2 || d.PostingsEntriesDecoded != 2 {
			t.Fatalf("iteration %d stats: frags=%d entries=%d", i, d.FragmentsMerged, d.PostingsEntriesDecoded)
		}
	}
}

// TestLazyMergerReuseChainedV1 chains merges through one merger: each
// round merges a fresh single-entry fragment with the accumulated list,
// copied out of the merger's buffer as the engine copies it. A past bug
// left stale cursors in reused merge scratch; on reuse two v1 cursors
// shared one buffer and clobbered each other's current key, collapsing
// the chain to two mismatched entries. The list must grow by one per
// round whether both inputs of every merge are v1 (re-encoded before each
// round) or v2.
func TestLazyMergerReuseChainedV1(t *testing.T) {
	for _, f := range listEncoders {
		t.Run(f.name, func(t *testing.T) {
			m := &lazyMerger{st: &metrics.IOStats{}}
			var existing []byte
			for i := 0; i < 10; i++ {
				prev, err := postings.Decode(existing)
				if err != nil {
					t.Fatal(err)
				}
				incoming := f.encode(postings.List{{Key: fmt.Sprintf("t%04d", i), Seq: uint64(100 + i)}})
				out, _ := m.Merge(nil, [][]byte{incoming, f.encode(prev)}, false)
				existing = append([]byte(nil), out...)
			}
			got, err := postings.Decode(existing)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 10 {
				t.Fatalf("chain collapsed: %d entries, want 10: %v", len(got), got)
			}
			for i, e := range got {
				wantKey := fmt.Sprintf("t%04d", 9-i)
				wantSeq := uint64(100 + 9 - i)
				if e.Key != wantKey || e.Seq != wantSeq {
					t.Fatalf("entry %d = %s@%d, want %s@%d", i, e.Key, e.Seq, wantKey, wantSeq)
				}
			}
		})
	}
}

// TestLazyMergerAllocationFree: once a merger has seen a fragment set's
// size, merging v2 fragments allocates nothing — a flush's hot key and a
// compaction's multi-entry lists alike.
func TestLazyMergerAllocationFree(t *testing.T) {
	for _, values := range [][][]byte{
		mergeBenchFragments(512, 1, listEncoders[1].encode),
		mergeBenchFragments(4, 100, listEncoders[1].encode),
	} {
		m := &lazyMerger{st: &metrics.IOStats{}}
		for _, bottom := range []bool{false, true} {
			m.Merge(nil, values, bottom)
			if allocs := testing.AllocsPerRun(20, func() { m.Merge(nil, values, bottom) }); allocs != 0 {
				t.Fatalf("%d fragments, bottom=%v: a warm Merge allocated %.1f times", len(values), bottom, allocs)
			}
		}
	}
}

// mergeBenchFragments builds nFrags fragments of size entries each,
// written by encode, newest first within each fragment and across
// fragments (fragment 0 carries the highest sequence numbers), with
// disjoint primary keys — the shape the Lazy index's strata hand to
// LOOKUP and compaction.
func mergeBenchFragments(nFrags, size int, encode func(postings.List) []byte) [][]byte {
	var frags [][]byte
	seq := uint64(nFrags*size + 1)
	for fr := 0; fr < nFrags; fr++ {
		l := make(postings.List, size)
		for i := range l {
			seq--
			l[i] = postings.Entry{Key: fmt.Sprintf("t%07d", fr*size+i), Seq: seq}
		}
		frags = append(frags, encode(l))
	}
	return frags
}

// benchMerge merges values through one warm merger per run.
func benchMerge(b *testing.B, values [][]byte) {
	m := &lazyMerger{st: &metrics.IOStats{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, keep := m.Merge(nil, values, false); !keep {
			b.Fatal("merge elided the key")
		}
	}
}

// BenchmarkPostingsMerge is a compaction's posting merge in isolation: a
// 4-way merge of size-entry fragments into the merger's reused buffer,
// from v1 (seed JSON) or v2 inputs; the output is v2 either way.
func BenchmarkPostingsMerge(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		for _, f := range listEncoders {
			b.Run(fmt.Sprintf("entries=%d/%s", size, f.name), func(b *testing.B) {
				benchMerge(b, mergeBenchFragments(4, size, f.encode))
			})
		}
	}
}

// BenchmarkMergeManyFragments is a flush's merge of a hot Lazy key: one
// one-entry fragment per blind PUT, newest first, through the heap of
// cursors.
func BenchmarkMergeManyFragments(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("fragments=%d", n), func(b *testing.B) {
			benchMerge(b, mergeBenchFragments(n, 1, listEncoders[1].encode))
		})
	}
}
