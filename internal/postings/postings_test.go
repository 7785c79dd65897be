package postings

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

// refEncodeV1 is the seed's posting-list writer: the list as a single
// JSON array of {k, s, d} objects, the paper's representation ("Posting
// lists can be serialized as a single JSON array"). The package reads v1
// but no longer writes it; tests write it to keep that reading covered.
func refEncodeV1(l List) []byte {
	if len(l) == 0 {
		return []byte("[]")
	}
	data, err := json.Marshal(l)
	if err != nil {
		panic(err) // a List of plain structs cannot fail to marshal
	}
	return data
}

// encoders writes a list in each format the package reads.
var encoders = []struct {
	name   string
	encode func(List) []byte
}{
	{"v1", refEncodeV1},
	{"v2", func(l List) []byte { return AppendList(nil, l) }},
}

// refAdd prepends a new posting for key with seq, superseding any
// existing entry for the same primary key — the Eager index's
// read-modify-write step on a decoded list, the reference for AppendAdd.
// The input's newest-first order is preserved without re-sorting.
func refAdd(l List, key string, seq uint64, del bool) List {
	out := make(List, 0, len(l)+1)
	out = append(out, Entry{Key: key, Seq: seq, Del: del})
	for _, e := range l {
		if e.Key != key {
			out = append(out, e)
		}
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := List{{Key: "t4", Seq: 4}, {Key: "t1", Seq: 1, Del: true}}
	got, err := Decode(refEncodeV1(l))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != l[0] || got[1] != l[1] {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if l, err := Decode(nil); err != nil || l != nil {
		t.Fatalf("Decode(nil) = %v, %v", l, err)
	}
	if l, err := Decode([]byte("[]")); err != nil || len(l) != 0 {
		t.Fatalf("Decode([]) = %v, %v", l, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("corrupt input accepted")
	}
}

func TestSingle(t *testing.T) {
	l, err := Decode(AppendSingle(nil, "t9", 9, false))
	if err != nil || len(l) != 1 || l[0].Key != "t9" || l[0].Seq != 9 || l[0].Del {
		t.Fatalf("AppendSingle = %+v, %v", l, err)
	}
}

func TestMergeNewestWinsPerKey(t *testing.T) {
	// Fragments newest-first, as compaction sees them.
	f1 := List{{Key: "t3", Seq: 30}, {Key: "t1", Seq: 25}} // newer fragment
	f2 := List{{Key: "t1", Seq: 10}, {Key: "t2", Seq: 5}}  // older fragment
	got := Merge([]List{f1, f2}, false)
	if len(got) != 3 {
		t.Fatalf("merged %d entries: %+v", len(got), got)
	}
	// Newest-first global order: t3(30), t1(25), t2(5).
	want := List{{Key: "t3", Seq: 30}, {Key: "t1", Seq: 25}, {Key: "t2", Seq: 5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeDeletionMarkers(t *testing.T) {
	f1 := List{{Key: "t1", Seq: 20, Del: true}}
	f2 := List{{Key: "t1", Seq: 10}, {Key: "t2", Seq: 5}}
	// Not bottom: marker survives so deeper fragments stay shadowed.
	got := Merge([]List{f1, f2}, false)
	if len(got) != 2 || !got[0].Del || got[0].Key != "t1" {
		t.Fatalf("marker lost: %+v", got)
	}
	// Bottom: marker (and the entry it shadows) disappear.
	got = Merge([]List{f1, f2}, true)
	if len(got) != 1 || got[0].Key != "t2" {
		t.Fatalf("bottom merge = %+v", got)
	}
}

func TestAddSupersedes(t *testing.T) {
	l := List{{Key: "t1", Seq: 5}, {Key: "t2", Seq: 3}}
	l = refAdd(l, "t1", 9, false)
	if len(l) != 2 || l[0].Key != "t1" || l[0].Seq != 9 || l[1].Key != "t2" {
		t.Fatalf("refAdd = %+v", l)
	}
	l = refAdd(l, "t3", 12, true)
	if len(l) != 3 || l[0].Key != "t3" || !l[0].Del {
		t.Fatalf("refAdd del = %+v", l)
	}
}

func TestQuickMergeInvariants(t *testing.T) {
	prop := func(keys []uint8, seqs []uint16) bool {
		// Build random fragments.
		var frags []List
		cur := List{}
		for i := range keys {
			seq := uint64(0)
			if i < len(seqs) {
				seq = uint64(seqs[i])
			}
			cur = append(cur, Entry{Key: string(rune('a' + keys[i]%16)), Seq: seq, Del: keys[i]%7 == 0})
			if len(cur) == 3 {
				frags = append(frags, cur)
				cur = List{}
			}
		}
		frags = append(frags, cur)
		got := Merge(frags, false)
		// Invariant 1: newest-first order.
		for i := 1; i < len(got); i++ {
			if got[i].Seq > got[i-1].Seq {
				return false
			}
		}
		// Invariant 2: unique keys.
		seen := map[string]bool{}
		for _, e := range got {
			if seen[e.Key] {
				return false
			}
			seen[e.Key] = true
		}
		// Invariant 3: each survivor has the max seq for its key.
		for _, e := range got {
			for _, f := range frags {
				for _, o := range f {
					if o.Key == e.Key && o.Seq > e.Seq {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMergeLargeLists(b *testing.B) {
	var frags []List
	for f := 0; f < 4; f++ {
		l := make(List, 1000)
		for i := range l {
			l[i] = Entry{Key: string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)), Seq: uint64(f*1000 + i)}
		}
		frags = append(frags, l)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(frags, false)
	}
}
