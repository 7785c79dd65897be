package ikey

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	cases := []struct {
		key  []byte
		seq  uint64
		kind Kind
	}{
		{[]byte("tweet-1"), 1, KindSet},
		{[]byte(""), 0, KindDelete},
		{[]byte{0x00, 0xff}, MaxSeq, KindSet},
		{[]byte("x"), 123456789, KindDelete},
	}
	for _, c := range cases {
		ik := Make(c.key, c.seq, c.kind)
		if !bytes.Equal(UserKey(ik), c.key) {
			t.Errorf("UserKey mismatch for %q", c.key)
		}
		if Seq(ik) != c.seq {
			t.Errorf("Seq = %d, want %d", Seq(ik), c.seq)
		}
		if KindOf(ik) != c.kind {
			t.Errorf("Kind = %d, want %d", KindOf(ik), c.kind)
		}
	}
}

func TestCompareUserKeyDominates(t *testing.T) {
	a := Make([]byte("a"), 1, KindSet)
	b := Make([]byte("b"), 100, KindSet)
	if Compare(a, b) >= 0 {
		t.Fatal("a must sort before b regardless of seq")
	}
}

func TestCompareSeqDescending(t *testing.T) {
	old := Make([]byte("k"), 5, KindSet)
	newer := Make([]byte("k"), 10, KindSet)
	if Compare(newer, old) >= 0 {
		t.Fatal("newer sequence must sort first")
	}
	if Compare(old, old) != 0 {
		t.Fatal("equal keys must compare 0")
	}
}

func TestSeekKeySortsFirst(t *testing.T) {
	seek := SeekKey([]byte("k"))
	for _, seq := range []uint64{0, 1, 1000, MaxSeq - 1} {
		for _, kind := range []Kind{KindDelete, KindSet} {
			ik := Make([]byte("k"), seq, kind)
			if Compare(seek, ik) > 0 {
				t.Fatalf("SeekKey must not sort after %s", String(ik))
			}
		}
	}
}

func TestSeekPastSortsBetweenKeys(t *testing.T) {
	past := AppendSeekPast([]byte("junk"), []byte("k"))[len("junk"):]
	for _, seq := range []uint64{1, 1000, MaxSeq} {
		for _, kind := range []Kind{KindDelete, KindSet} {
			if ik := Make([]byte("k"), seq, kind); Compare(past, ik) <= 0 {
				t.Fatalf("AppendSeekPast must sort after %s", String(ik))
			}
			for _, next := range []string{"k\x00", "ka", "l"} {
				if ik := Make([]byte(next), seq, kind); Compare(past, ik) >= 0 {
					t.Fatalf("AppendSeekPast must sort before %s", String(ik))
				}
			}
		}
	}
}

func TestSortOrdering(t *testing.T) {
	keys := [][]byte{
		Make([]byte("a"), 3, KindSet),
		Make([]byte("b"), 1, KindSet),
		Make([]byte("a"), 7, KindDelete),
		Make([]byte("a"), 5, KindSet),
		Make([]byte("b"), 9, KindDelete),
	}
	sort.Slice(keys, func(i, j int) bool { return Compare(keys[i], keys[j]) < 0 })
	want := []string{
		`"a"@7:DEL`, `"a"@5:SET`, `"a"@3:SET`, `"b"@9:DEL`, `"b"@1:SET`,
	}
	for i, k := range keys {
		if String(k) != want[i] {
			t.Fatalf("position %d: got %s want %s", i, String(k), want[i])
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(key []byte, seq uint64, del bool) bool {
		seq &= MaxSeq
		kind := KindSet
		if del {
			kind = KindDelete
		}
		ik := Make(key, seq, kind)
		return bytes.Equal(UserKey(ik), key) && Seq(ik) == seq && KindOf(ik) == kind
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareConsistentWithParts(t *testing.T) {
	prop := func(k1, k2 []byte, s1, s2 uint64) bool {
		s1 &= MaxSeq
		s2 &= MaxSeq
		a := Make(k1, s1, KindSet)
		b := Make(k2, s2, KindSet)
		c := Compare(a, b)
		if uc := bytes.Compare(k1, k2); uc != 0 {
			return (c < 0) == (uc < 0)
		}
		switch {
		case s1 > s2:
			return c < 0
		case s1 < s2:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
