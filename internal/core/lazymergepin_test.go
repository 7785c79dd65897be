package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// lazyMergePinGolden holds, for every TestLazyMergerPinned case and both
// values of bottom, the SHA-256 of lazyMerger.Merge's output, its keep
// flag and the entries, bytes and fragments it booked.
const lazyMergePinGolden = "testdata/lazymerge.golden"

// lazyMergeCorpus is TestLazyMergerPinned's fragment sets, in a fixed
// order: a flush's hot key (one-entry fragments, re-puts and tombstones
// among them), overlapping multi-entry fragments with ties across
// fragments, v1 beside v2, an all-deleted set, magic-only and empty lists,
// and ill-formed fragments, which take the salvage path.
func lazyMergeCorpus(t *testing.T) (names []string, sets [][][]byte) {
	rng := rand.New(rand.NewSource(45))
	v1 := func(l postings.List) []byte {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	add := func(name string, values ...[]byte) {
		names = append(names, name)
		sets = append(sets, values)
	}
	// hot builds n one-entry fragments newest first: primary keys repeat,
	// and every seventh entry is a deletion marker.
	hot := func(n int) [][]byte {
		var values [][]byte
		seq := uint64(10 * n)
		for i := 0; i < n; i++ {
			seq -= uint64(1 + rng.Intn(5))
			key := fmt.Sprintf("t%04d", rng.Intn(n/2+1))
			values = append(values, postings.AppendSingle(nil, key, seq, rng.Intn(7) == 0))
		}
		return values
	}
	// overlapping builds n multi-entry lists whose seqs interleave and
	// whose keys overlap; some entries tie across fragments (same key,
	// same seq).
	overlapping := func(n, size int) []postings.List {
		lists := make([]postings.List, n)
		for i := range lists {
			seq := uint64(1000 + rng.Intn(20))
			for j := 0; j < size; j++ {
				seq -= uint64(rng.Intn(4))
				key := fmt.Sprintf("t%03d", rng.Intn(3*size))
				lists[i] = append(lists[i], postings.Entry{Key: key, Seq: seq, Del: rng.Intn(5) == 0})
			}
			lists[i] = append(lists[i], postings.Entry{Key: "tie", Seq: 1, Del: i%2 == 1})
		}
		return lists
	}
	for _, n := range []int{1, 8, 64, 512} {
		add(fmt.Sprintf("hot-%d", n), hot(n)...)
	}
	var four [][]byte
	for _, l := range overlapping(4, 40) {
		four = append(four, postings.AppendList(nil, l))
	}
	add("overlap-4", four...)
	var mixed [][]byte
	for i, l := range overlapping(4, 25) {
		if i%2 == 1 {
			mixed = append(mixed, v1(l))
		} else {
			mixed = append(mixed, postings.AppendList(nil, l))
		}
	}
	add("mixed-v1-v2", mixed...)
	add("tombstones",
		postings.AppendList(nil, postings.List{{Key: "a", Seq: 30, Del: true}, {Key: "b", Seq: 28}, {Key: "c", Seq: 20, Del: true}}),
		postings.AppendList(nil, postings.List{{Key: "c", Seq: 25}, {Key: "a", Seq: 10}, {Key: "d", Seq: 9, Del: true}}))
	add("all-deleted",
		postings.AppendList(nil, postings.List{{Key: "a", Seq: 8, Del: true}, {Key: "b", Seq: 7, Del: true}}),
		postings.AppendList(nil, postings.List{{Key: "a", Seq: 5}, {Key: "b", Seq: 4, Del: true}}))
	add("magic-only", postings.AppendSingle(nil, "t1", 7, false), []byte{postings.MagicV2})
	add("empty-lists", nil, postings.AppendSingle(nil, "t1", 7, false), []byte("[]"), []byte{postings.MagicV2})
	add("only-empty", []byte{postings.MagicV2}, nil)
	add("corrupt",
		postings.AppendSingle(nil, "t2", 9, false),
		append(postings.AppendSingle(nil, "t3", 8, false), 0x80),
		postings.AppendSingle(nil, "t1", 7, true))
	add("out-of-order",
		postings.AppendList(nil, postings.List{{Key: "a", Seq: 3}, {Key: "b", Seq: 9}}),
		v1(postings.List{{Key: "b", Seq: 4}, {Key: "c", Seq: 2}}))
	return names, sets
}

// TestLazyMergerPinned runs lazyMerger.Merge over lazyMergeCorpus, on a
// fresh merger per call and again on one merger reused across every call,
// and holds each result to lazyMergePinGolden: the output bytes, the keep
// flag and the three decode counters it books.
func TestLazyMergerPinned(t *testing.T) {
	names, sets := lazyMergeCorpus(t)
	run := func(merger func() *lazyMerger) string {
		var b strings.Builder
		for i, values := range sets {
			for _, bottom := range []bool{false, true} {
				m := merger()
				m.st = &metrics.IOStats{}
				out, keep := m.Merge(nil, values, bottom)
				sum := sha256.Sum256(out)
				fmt.Fprintf(&b, "%s bottom=%v %s keep=%v entries=%d bytes=%d fragments=%d\n",
					names[i], bottom, hex.EncodeToString(sum[:]), keep,
					m.st.PostingsEntriesDecoded.Load(), m.st.PostingsBytesDecoded.Load(), m.st.FragmentsMerged.Load())
			}
		}
		return b.String()
	}
	got := run(func() *lazyMerger { return &lazyMerger{} })
	shared := &lazyMerger{}
	if reused := run(func() *lazyMerger { return shared }); reused != got {
		t.Errorf("a reused merger differs from fresh ones:\n%s\nfresh:\n%s", reused, got)
	}
	want, err := os.ReadFile(lazyMergePinGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d: got %q, pinned %q", i+1, g, w)
			}
		}
		t.Logf("merges now:\n%s", got)
	}
}
