package postings

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sampleList() List {
	return List{
		{Key: "t9", Seq: 90},
		{Key: "t7", Seq: 71, Del: true},
		{Key: "t3", Seq: 30},
		{Key: "", Seq: 12}, // empty keys must round-trip
		{Key: "t1", Seq: 1},
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, l := range []List{nil, {}, sampleList()} {
		enc := AppendList(nil, l)
		if len(enc) == 0 || enc[0] != MagicV2 {
			t.Fatalf("v2 encoding missing magic: %x", enc)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(l) {
			t.Fatalf("round trip %d entries, want %d", len(got), len(l))
		}
		for i := range l {
			if got[i] != l[i] {
				t.Fatalf("entry %d = %+v want %+v", i, got[i], l[i])
			}
		}
	}
}

func TestV2RoundTripUnsortedAndHugeSeqs(t *testing.T) {
	// Wrap-around delta encoding must round-trip any seq sequence, not
	// just descending ones.
	l := List{{Key: "a", Seq: 3}, {Key: "b", Seq: 1 << 63}, {Key: "c", Seq: 0}, {Key: "d", Seq: ^uint64(0)}}
	got, err := Decode(AppendList(nil, l))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestEncodeFormat(t *testing.T) {
	l := sampleList()
	v1 := refEncodeV1(l)
	if v1[0] != '[' {
		t.Fatalf("v1 encoding not JSON: %q", v1)
	}
	v2 := AppendList(nil, l)
	if v2[0] != MagicV2 {
		t.Fatalf("v2 encoding has no magic: %x", v2)
	}
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
	for _, enc := range [][]byte{v1, v2} {
		got, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("decode mismatch: %+v", got)
		}
	}
}

func TestCursorEarlyStopConsumesPrefixOnly(t *testing.T) {
	l := make(List, 100)
	for i := range l {
		l[i] = Entry{Key: "tweet-with-a-long-key-0000", Seq: uint64(1000 - i)}
	}
	enc := AppendList(nil, l)
	var c Cursor
	if err := c.Reset(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && c.Next(); i++ {
	}
	if c.EntriesDecoded() != 5 {
		t.Fatalf("EntriesDecoded = %d want 5", c.EntriesDecoded())
	}
	if c.BytesDecoded() >= int64(len(enc))/2 {
		t.Fatalf("early stop consumed %d of %d bytes", c.BytesDecoded(), len(enc))
	}
}

func TestCursorV1Fallback(t *testing.T) {
	l := sampleList()
	var c Cursor
	if err := c.Reset(refEncodeV1(l)); err != nil {
		t.Fatal(err)
	}
	// A v1 list is charged like the v2 list it is re-encoded as: per
	// entry consumed, not all at Reset.
	if c.EntriesDecoded() != 0 || c.BytesDecoded() != 1 {
		t.Fatalf("v1 counters at Reset = %d entries, %d bytes", c.EntriesDecoded(), c.BytesDecoded())
	}
	var got List
	for c.Next() {
		got = append(got, Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
	}
	if c.Err() != nil || !reflect.DeepEqual(got, l) {
		t.Fatalf("v1 cursor = %+v, %v", got, c.Err())
	}
	if v2 := AppendList(nil, l); c.EntriesDecoded() != int64(len(l)) || c.BytesDecoded() != int64(len(v2)) {
		t.Fatalf("v1 counters = %d entries, %d bytes; want %d, %d", c.EntriesDecoded(), c.BytesDecoded(), len(l), len(v2))
	}
	// The same cursor must be reusable for v2 input afterwards.
	if err := c.Reset(AppendList(nil, l)); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for c.Next() {
		got = append(got, Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("v2 cursor after reuse = %+v", got)
	}
}

func TestCursorCorruptInputs(t *testing.T) {
	valid := AppendList(nil, sampleList())
	for _, data := range [][]byte{
		{MagicV2, 0x80},       // truncated uvarint
		{MagicV2, 0x04},       // key length 2 past the buffer
		{MagicV2, 0x02, 0x80}, // truncated seq varint
		{MagicV2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, // huge key length
		valid[:len(valid)-1], // truncated key bytes
	} {
		var c Cursor
		if err := c.Reset(data); err != nil {
			t.Fatalf("Reset(%x) should defer corruption to Next: %v", data, err)
		}
		for c.Next() {
		}
		if c.Err() == nil {
			t.Fatalf("corrupt input %x iterated cleanly", data)
		}
		if _, err := Decode(data); err == nil {
			t.Fatalf("Decode accepted corrupt %x", data)
		}
	}
}

// TestAppendSingleMatchesSingle: the v2 one-entry fragment a Lazy PUT
// writes decodes to the seed's one-entry v1 list.
func TestAppendSingleMatchesSingle(t *testing.T) {
	got, err := Decode(AppendSingle(nil, "t42", 7, true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(refEncodeV1(List{{Key: "t42", Seq: 7, Del: true}}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendSingle = %+v want %+v", got, want)
	}
}

func TestAppendAddEquivalence(t *testing.T) {
	base := sampleList()
	for _, in := range encoders {
		out, decoded, err := AppendAdd(nil, in.encode(base), "t3", 99, false)
		if err != nil {
			t.Fatal(err)
		}
		if decoded != int64(len(base)) {
			t.Fatalf("decoded = %d want %d", decoded, len(base))
		}
		if out[0] != MagicV2 {
			t.Fatalf("in=%s: AppendAdd wrote %q, not v2", in.name, out)
		}
		got, err := Decode(out)
		if err != nil {
			t.Fatal(err)
		}
		want := refAdd(base, "t3", 99, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("in=%s: AppendAdd = %+v want %+v", in.name, got, want)
		}
	}
	// Missing list: prepend into nothing.
	out, _, err := AppendAdd(nil, nil, "t1", 5, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Decode(out)
	if len(got) != 1 || got[0] != (Entry{Key: "t1", Seq: 5, Del: true}) {
		t.Fatalf("AppendAdd(nil) = %+v", got)
	}
}

// canonical sorts a list into a deterministic order for set comparison
// (v1 Merge's sort is unstable for equal sequence numbers).
func canonical(l List) List {
	out := append(List(nil), l...)
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

// mergeStreams is MergeScratch.Merge on a fresh scratch.
func mergeStreams(dst []byte, fragments [][]byte, dropDeleted bool) ([]byte, error) {
	var s MergeScratch
	return s.Merge(dst, fragments, dropDeleted)
}

func TestMergeStreamsMatchesMerge(t *testing.T) {
	newer := List{{Key: "t5", Seq: 50}, {Key: "t2", Seq: 42, Del: true}, {Key: "t1", Seq: 25}}
	older := List{{Key: "t2", Seq: 10}, {Key: "t1", Seq: 8}, {Key: "t0", Seq: 2}}
	for _, drop := range []bool{false, true} {
		want := canonical(Merge([]List{newer, older}, drop))
		// All four format combinations of the two fragments.
		for _, f1 := range encoders {
			for _, f2 := range encoders {
				frags := [][]byte{f1.encode(newer), f2.encode(older)}
				out, err := mergeStreams(nil, frags, drop)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Decode(out)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(canonical(got), want) {
					t.Fatalf("drop=%v %s+%s: got %+v want %+v", drop, f1.name, f2.name, got, want)
				}
				// Output must be newest-first.
				for i := 1; i < len(got); i++ {
					if got[i].Seq > got[i-1].Seq {
						t.Fatalf("merge output not newest-first: %+v", got)
					}
				}
			}
		}
	}
}

// mergeLinear is the test oracle for mergeHeap: it merges the primed
// cursors by a linear max-scan, the cursor with the highest current seq
// next, ties to the earlier fragment.
func (s *MergeScratch) mergeLinear(dropDeleted bool, emit func(key []byte, seq uint64, del bool)) error {
	// The cursors stay in fragment order; each is positioned on its
	// current (yet unconsumed) entry.
	for len(s.cursors) > 0 {
		best := 0
		for i := 1; i < len(s.cursors); i++ {
			if s.cursors[i].Seq() > s.cursors[best].Seq() {
				best = i
			}
		}
		c := &s.cursors[best]
		s.take(c, dropDeleted, emit)
		if !c.Next() {
			if err := s.retire(c); err != nil {
				return err
			}
			// Shift-remove, then zero the vacated tail slot: the shift
			// duplicates the last cursor's struct (and so its keyBuf/list
			// backing arrays) one slot down, and primeCursors revives stale
			// slots by reslicing — two cursors sharing one buffer would
			// clobber each other's current entry on the next reuse.
			n := len(s.cursors)
			copy(s.cursors[best:], s.cursors[best+1:])
			s.cursors[n-1] = Cursor{}
			s.cursors = s.cursors[:n-1]
		}
	}
	return nil
}

// mergeBoth merges frags through MergeScratch.Merge and again through the
// linear max-scan oracle, both on fresh scratches.
func mergeBoth(t testing.TB, frags [][]byte, drop bool) (merged, linear []byte) {
	t.Helper()
	merged, err := mergeStreams(nil, frags, drop)
	if err != nil {
		t.Fatal(err)
	}
	var s MergeScratch
	if err := s.primeCursors(frags); err != nil {
		t.Fatalf("fragments not newest first (%v)", err)
	}
	s.seen.Reset()
	linear, prev := []byte{MagicV2}, uint64(0)
	if err := s.mergeLinear(drop, func(key []byte, seq uint64, del bool) {
		linear, prev = appendEntry(linear, prev, key, seq, del)
	}); err != nil {
		t.Fatal(err)
	}
	return merged, linear
}

// TestMergeManyFragmentsMatchesMerge merges a few and many (more than
// 64) fragments, with interleaved seqs and a key repeated at one seq in
// several fragments (deleted in some): the heap must give the linear
// scan's bytes, and the reference Merge's entries — the earlier
// fragment's entry winning each tie.
func TestMergeManyFragmentsMatchesMerge(t *testing.T) {
	for _, n := range []int{2, 9, 65, 300} {
		frags := make([]List, n)
		for i := range frags {
			for j := 0; j < 1+i%4; j++ {
				seq := uint64(10*n - 3*j*n/2 - i%(3*n/2))
				frags[i] = append(frags[i], Entry{Key: fmt.Sprintf("t%03d", (i*7+j)%97), Seq: seq})
			}
			// Tied entries: the same key at the same seq in every
			// fragment, deleted in the odd ones.
			frags[i] = append(frags[i], Entry{Key: "tie", Seq: 1, Del: i%2 == 1})
		}
		for _, drop := range []bool{false, true} {
			var enc [][]byte
			for _, f := range frags {
				enc = append(enc, AppendList(nil, f))
			}
			merged, linear := mergeBoth(t, enc, drop)
			if !bytes.Equal(merged, linear) {
				t.Fatalf("n=%d drop=%v: heap merge differs from the linear scan", n, drop)
			}
			got, err := Decode(merged)
			if err != nil {
				t.Fatal(err)
			}
			if want := canonical(Merge(frags, drop)); !reflect.DeepEqual(canonical(got), want) {
				t.Fatalf("n=%d drop=%v: got %+v want %+v", n, drop, got, want)
			}
		}
	}
}

// TestMergeStreamsUnsortedFallback merges the input that once took the
// decode-all fallback, a fragment whose seqs rise: the merge must fail
// with ErrCorrupt, in either format and wherever the fragment sits, and
// the same fragments in newest-first order must merge as the reference
// Merge does.
func TestMergeStreamsUnsortedFallback(t *testing.T) {
	unsorted := List{{Key: "a", Seq: 1}, {Key: "b", Seq: 9}, {Key: "a", Seq: 5}}
	other := List{{Key: "b", Seq: 3}, {Key: "c", Seq: 2}}
	for _, fm := range encoders {
		for _, frags := range [][][]byte{
			{fm.encode(unsorted), AppendList(nil, other)},
			{AppendList(nil, other), fm.encode(unsorted)},
		} {
			if _, err := mergeStreams(nil, frags, false); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: merge err = %v, want %v", fm.name, err, ErrCorrupt)
			}
		}
	}
	sorted := List{unsorted[1], unsorted[2], unsorted[0]}
	want := canonical(Merge([]List{sorted, other}, false))
	out, err := mergeStreams(nil, [][]byte{AppendList(nil, sorted), AppendList(nil, other)}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(got), want) {
		t.Fatalf("merge = %+v want %+v", got, want)
	}
}

func TestMergeStreamsCorruptFragmentFails(t *testing.T) {
	good := AppendList(nil, sampleList())
	for _, bad := range [][]byte{{MagicV2, 0x04}, []byte("{not json")} {
		if _, err := mergeStreams(nil, [][]byte{good, bad}, false); err == nil {
			t.Fatalf("merge accepted corrupt fragment %x", bad)
		}
	}
}

func TestMergeScratchReuse(t *testing.T) {
	var s MergeScratch
	var buf []byte
	a := AppendList(nil, List{{Key: "x", Seq: 4}})
	b := AppendList(nil, List{{Key: "y", Seq: 2}})
	for i := 0; i < 3; i++ {
		out, err := s.Merge(buf[:0], [][]byte{a, b}, false)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
		got, err := Decode(out)
		if err != nil || len(got) != 2 || got[0].Key != "x" || got[1].Key != "y" {
			t.Fatalf("iteration %d: %+v, %v", i, got, err)
		}
		if s.FragmentsMerged() != 2 || s.EntriesDecoded() != 2 {
			t.Fatalf("iteration %d stats: frags=%d entries=%d", i, s.FragmentsMerged(), s.EntriesDecoded())
		}
	}
}

// TestMergeScratchReuseChainedV1 chains merges through one scratch: each
// round merges a fresh single-entry fragment with the accumulated list. A past
// bug left stale Cursor structs in the scratch's slice after shift-
// removal; on reuse two v1 cursors shared one keyBuf backing array and
// clobbered each other's current key, collapsing the chain to two
// mismatched entries. The list must grow by one per round whether both
// inputs of every merge are v1 (re-encoded before each round) or v2.
func TestMergeScratchReuseChainedV1(t *testing.T) {
	for _, f := range encoders {
		t.Run(f.name, func(t *testing.T) {
			var sc MergeScratch
			var existing []byte
			for i := 0; i < 10; i++ {
				prev, err := Decode(existing)
				if err != nil {
					t.Fatal(err)
				}
				incoming := f.encode(List{{Key: fmt.Sprintf("t%04d", i), Seq: uint64(100 + i)}})
				out, err := sc.Merge(nil, [][]byte{incoming, f.encode(prev)}, false)
				if err != nil {
					t.Fatal(err)
				}
				existing = out
			}
			got, err := Decode(existing)
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

func TestAppendSingleAllocationFree(t *testing.T) {
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendSingle(dst[:0], "tweet-0001234", 123456, false)
	})
	if allocs != 0 {
		t.Fatalf("AppendSingle allocated %.1f times per call", allocs)
	}
}

func TestCursorNextAllocationFree(t *testing.T) {
	l := make(List, 64)
	for i := range l {
		l[i] = Entry{Key: "tweet-0001234", Seq: uint64(5000 - i)}
	}
	enc := AppendList(nil, l)
	var c Cursor
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Reset(enc); err != nil {
			t.Fatal(err)
		}
		n := 0
		for c.Next() {
			n += len(c.Key())
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("v2 cursor walk allocated %.1f times per list", allocs)
	}
}

func TestAppendAddAllocationFree(t *testing.T) {
	existing := AppendList(nil, sampleList())
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := AppendAdd(dst[:0], existing, "t3", 99, false)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("AppendAdd allocated %.1f times per call", allocs)
	}
}

func TestV1EncodingUnchangedBySniffing(t *testing.T) {
	// Byte-for-byte: the reference v1 writer must produce exactly what the
	// seed wrote, so the v1 inputs of these tests are the lists seed
	// databases hold.
	l := List{{Key: "t4", Seq: 4}, {Key: "t1", Seq: 1, Del: true}}
	want := `[{"k":"t4","s":4},{"k":"t1","s":1,"d":true}]`
	if got := string(refEncodeV1(l)); got != want {
		t.Fatalf("v1 bytes changed: %s", got)
	}
	if got := refEncodeV1(List{{Key: "t9", Seq: 9}}); !bytes.Equal(got, []byte(`[{"k":"t9","s":9}]`)) {
		t.Fatalf("one-entry v1 bytes changed: %s", got)
	}
}

// TestV1WriterOnlyInTests keeps the v1 writer out of the package: no
// non-test file may encode JSON. Decoding v1 lists stays.
func TestV1WriterOnlyInTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "json" &&
				(strings.HasPrefix(sel.Sel.Name, "Marshal") || sel.Sel.Name == "NewEncoder") {
				t.Errorf("%s: json.%s in non-test code", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
