package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// ascend calls fn for every key >= lo in ascending order, stopping early
// if fn returns false.
func ascend(tr *Tree, lo string, fn func(key string, postings []Posting) bool) {
	tr.ascend(tr.root, lo, nil, fn)
}

// treeLen counts the tree's distinct keys.
func treeLen(tr *Tree) int {
	n := 0
	ascend(tr, "", func(string, []Posting) bool { n++; return true })
	return n
}

// treePostings counts the postings under every key.
func treePostings(tr *Tree) int {
	n := 0
	ascend(tr, "", func(_ string, ps []Posting) bool { n += len(ps); return true })
	return n
}

func TestEmpty(t *testing.T) {
	tr := New()
	if treeLen(tr) != 0 || treePostings(tr) != 0 {
		t.Fatal("empty tree has entries")
	}
	if got := tr.Get("x"); got != nil {
		t.Fatalf("Get on empty = %v", got)
	}
	called := false
	ascend(tr, "", func(string, []Posting) bool { called = true; return true })
	if called {
		t.Fatal("AscendRange on empty tree called fn")
	}
}

func TestAddGet(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Add(fmt.Sprintf("u%05d", i%100), Posting{Key: []byte(fmt.Sprintf("t%d", i)), Seq: uint64(i)})
	}
	if treeLen(tr) != 100 {
		t.Fatalf("Len = %d, want 100", treeLen(tr))
	}
	if treePostings(tr) != 2000 {
		t.Fatalf("Postings = %d", treePostings(tr))
	}
	ps := tr.Get("u00042")
	if len(ps) != 20 {
		t.Fatalf("postings for u00042 = %d, want 20", len(ps))
	}
	// Postings must be in increasing sequence order.
	for i := 1; i < len(ps); i++ {
		if ps[i].Seq <= ps[i-1].Seq {
			t.Fatal("postings out of sequence order")
		}
	}
}

func TestManyDistinctKeysStaySorted(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	keys := map[string]bool{}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%08d", rng.Intn(1<<30))
		keys[k] = true
		tr.Add(k, Posting{Seq: uint64(i)})
	}
	if treeLen(tr) != len(keys) {
		t.Fatalf("Len = %d, want %d", treeLen(tr), len(keys))
	}
	var got []string
	ascend(tr, "", func(k string, _ []Posting) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(keys))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("iteration not sorted")
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 {
		tr.Add(fmt.Sprintf("k%02d", i), Posting{Seq: uint64(i)})
	}
	collect := func(lo, hi string) []string {
		var out []string
		tr.AscendRange(lo, hi, func(k string, _ []Posting) bool {
			out = append(out, k)
			return true
		})
		return out
	}
	got := collect("k10", "k20")
	want := []string{"k10", "k12", "k14", "k16", "k18", "k20"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range [k10,k20] = %v", got)
	}
	if got := collect("k11", "k13"); fmt.Sprint(got) != "[k12]" {
		t.Fatalf("range [k11,k13] = %v", got)
	}
	if got := collect("k99", "k99"); len(got) != 0 {
		t.Fatalf("range past end = %v", got)
	}
	var open []string
	ascend(tr, "k94", func(k string, _ []Posting) bool { open = append(open, k); return true })
	if fmt.Sprint(open) != "[k94 k96 k98]" {
		t.Fatalf("Ascend open-ended = %v", open)
	}
	if got := collect("k97", "k01"); len(got) != 0 {
		t.Fatalf("inverted range = %v", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Add(fmt.Sprintf("k%02d", i), Posting{})
	}
	n := 0
	ascend(tr, "", func(string, []Posting) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickMatchesReferenceMap(t *testing.T) {
	prop := func(ops []uint16) bool {
		tr := New()
		ref := map[string][]uint64{}
		for seq, op := range ops {
			k := fmt.Sprintf("k%03d", op%500)
			tr.Add(k, Posting{Seq: uint64(seq)})
			ref[k] = append(ref[k], uint64(seq))
		}
		if treeLen(tr) != len(ref) {
			return false
		}
		for k, seqs := range ref {
			got := tr.Get(k)
			if len(got) != len(seqs) {
				return false
			}
			for i := range seqs {
				if got[i].Seq != seqs[i] {
					return false
				}
			}
		}
		// Full ascent matches the sorted reference keys.
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		ok := true
		ascend(tr, "", func(k string, _ []Posting) bool {
			if i >= len(want) || k != want[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDescendRangeAboveMatchesReference holds the seq-pruned walk to a
// plain one over a reference map: a few thousand random adds in rising
// seq order, enough for splits three levels deep, then walks over random
// ranges from random floors whose callback raises the floor at random,
// must call fn on the same keys in the same order. Each node's recorded
// maxSeq must also equal what its subtree holds.
func TestDescendRangeAboveMatchesReference(t *testing.T) {
	prop := func(seed int64, walks []uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[string]uint64{} // key → highest seq
		adds := 1 + rng.Intn(6000)
		for seq := 1; seq <= adds; seq++ {
			k := fmt.Sprintf("k%04d", rng.Intn(4000))
			tr.Add(k, Posting{Seq: uint64(seq)})
			ref[k] = uint64(seq)
			if seq%500 == 0 && !maxSeqsHold(tr.root) {
				t.Logf("after %d adds a node's maxSeq is wrong", seq)
				return false
			}
		}
		if !maxSeqsHold(tr.root) {
			t.Logf("after %d adds a node's maxSeq is wrong", adds)
			return false
		}
		var keys []string
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		for _, w := range walks {
			lo, hi := fmt.Sprintf("k%04d", w%4000), fmt.Sprintf("k%04d", w>>12%4000)
			floor := uint64(w>>20) % uint64(adds+1)
			raise := func(key string) uint64 { // a floor rise decided by key and walk
				if h := uint64(len(key)+int(key[len(key)-1])+int(w)) % 4; h != 0 {
					return floor + h
				}
				return 0
			}
			var want []string
			for _, k := range keys {
				if k >= lo && k <= hi && ref[k] > floor {
					want = append(want, k)
					floor = max(floor, raise(k))
				}
			}
			floor = uint64(w>>20) % uint64(adds+1)
			var got []string
			tr.DescendRangeAbove(lo, hi, floor, func(k string, ps []Posting) uint64 {
				got = append(got, k)
				if ps[len(ps)-1].Seq != ref[k] {
					t.Errorf("key %s: newest posting %d, want %d", k, ps[len(ps)-1].Seq, ref[k])
				}
				floor = max(floor, raise(k))
				return floor
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("[%s, %s] from %d: got %v, want %v", lo, hi, uint64(w>>20)%uint64(adds+1), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// maxSeqsHold reports whether every node below n records its subtree's
// highest posting seq.
func maxSeqsHold(n *node) bool {
	var m uint64
	for _, it := range n.items {
		for _, p := range it.postings {
			m = max(m, p.Seq)
		}
	}
	for _, c := range n.children {
		if !maxSeqsHold(c) {
			return false
		}
		m = max(m, c.maxSeq)
	}
	return n.maxSeq == m
}

// BenchmarkDescendRangeAbove walks a whole tree whose keys rise with
// their seqs, as creation times do, stopping the selection at the tenth
// newest posting: its cost should stay flat as the tree grows.
func BenchmarkDescendRangeAbove(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			tr := New()
			for i := 1; i <= n; i++ {
				tr.Add(fmt.Sprintf("t%06d", i), Posting{Seq: uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				calls := 0
				tr.DescendRangeAbove("", "t999999", 0, func(_ string, ps []Posting) uint64 {
					if calls++; calls < 10 {
						return 0
					}
					return ps[0].Seq
				})
			}
		})
	}
}

func BenchmarkAdd(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Add(fmt.Sprintf("u%07d", i%100000), Posting{Seq: uint64(i)})
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Add(fmt.Sprintf("u%07d", i), Posting{Seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("u%07d", i%100000))
	}
}
