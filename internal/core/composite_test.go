package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"leveldbpp/internal/lsm"
)

// TestCompositeSeqBoundSkipsDeepStrata: with a hot value's postings in
// the MemTable, level 0, level 1 and level 2 of the index table, a K = 10
// LOOKUP whose top 10 all sit in the MemTable reads no index block, while
// K = 0 reads exactly the blocks the merged scan of every stratum reads.
// Both answer as refCollect does.
func TestCompositeSeqBoundSkipsDeepStrata(t *testing.T) {
	db := openKind(t, IndexComposite)
	put := func(i int, user string) {
		t.Helper()
		if err := db.Put(fmt.Sprintf("t%05d", i), tweetDoc(user, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	user := func(i int) string {
		if i%7 == 0 {
			return "hot"
		}
		return fmt.Sprintf("u%02d", i%12)
	}
	i := 0
	for ; i < 3000; i++ {
		put(i, user(i))
	}
	if err := db.CompactRange("", ""); err != nil {
		t.Fatal(err)
	}
	for end := i + 3300; i < end; i++ {
		put(i, user(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for end := i + 10; i < end; i++ {
		put(i, "hot")
	}

	idx := db.indexes["UserID"]
	levels := map[int]bool{}
	err := idx.View(func(v *lsm.View) error {
		for _, s := range v.Strata() {
			if !s.IsMem() && len(stratumTables(s, []byte("hot"), []byte("hot\x01\x00"))) > 0 {
				levels[s.Level] = true
			}
		}
		return nil
	})
	if err != nil || !levels[0] || !levels[1] || !levels[2] {
		t.Fatalf("index levels holding hot = %v, %v; want 0, 1 and 2", levels, err)
	}

	for _, k := range []int{10, 0} {
		s0 := db.Stats()
		want, _, err := refCollect(db, "UserID", "hot", "hot", k, true)
		if err != nil {
			t.Fatal(err)
		}
		s1 := db.Stats()
		got, err := db.Lookup("UserID", "hot", k)
		if err != nil {
			t.Fatal(err)
		}
		s2 := db.Stats()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, keysOf(got), keysOf(want))
		}
		reads, ref := s2.Index.BlockReads-s1.Index.BlockReads, s1.Index.BlockReads-s0.Index.BlockReads
		if k == 10 && (len(got) != 10 || reads != 0) {
			t.Errorf("k=10: %d results, %d index block reads; want 10 from the MemTable, 0 reads", len(got), reads)
		}
		if k == 0 && (reads != ref || ref == 0) {
			t.Errorf("k=0: %d index block reads, merged scan %d", reads, ref)
		}
	}
}

// refCompositeHeap is the retired Composite source, kept as the oracle
// for compositeSource: the primary key and seq of every composite key a
// merged scan of the whole index table yields, heapified by seq.
type refCompositeHeap struct {
	arena []byte
	h     []compositeCand
}

func (s *refCompositeHeap) add(ck []byte, lo, hi string, seq uint64) {
	i := bytes.IndexByte(ck, compositeSep)
	if i < 0 || string(ck[:i]) < lo || string(ck[:i]) > hi {
		return
	}
	start := len(s.arena)
	s.arena = append(s.arena, ck[i+1:]...)
	s.h = append(s.h, compositeCand{start: start, end: len(s.arena), seq: seq})
}

func (s *refCompositeHeap) next() ([]byte, uint64, bool) {
	if len(s.h) == 0 {
		return nil, 0, false
	}
	top := s.h[0]
	last := len(s.h) - 1
	s.h[0] = s.h[last]
	s.h = s.h[:last]
	siftDown(s.h, 0, newerComposite)
	return s.arena[top.start:top.end], top.seq, true
}

// refCompositeStream is the stream the retired merged scan + heap yielded.
func refCompositeStream(idx *lsm.DB, lo, hi string) ([]streamed, error) {
	var src refCompositeHeap
	err := idx.Scan(compositeKey(lo, ""), append([]byte(hi), compositeSep+1), nil, func(key, _ []byte, seq uint64) bool {
		src.add(key, lo, hi, seq)
		return true
	})
	heapify(src.h, newerComposite)
	var out []streamed
	for key, seq, ok := src.next(); ok; key, seq, ok = src.next() {
		out = append(out, streamed{key: string(key), seq: seq})
	}
	return out, err
}

// compositeStreamValues are the attribute values FuzzCompositeStream
// writes, "b" a prefix of "bb" so a range can end inside a longer value.
var compositeStreamValues = []string{"a", "b", "bb", "c"}

// FuzzCompositeStream builds an index table from arbitrary PUT / DEL /
// Flush / CompactRange sequences over four values and eight primary keys
// — so a primary key is deleted under one value and re-put under another,
// and a composite key is re-put after its tombstone — and holds the first
// occurrences of compositeSource's stream to those of the retired merged
// scan for every range of values. Each input byte is one operation: its
// low three bits pick it (0–3 PUT, 4–5 DEL, 6 Flush, 7 CompactRange), the
// next two the value and the top three the primary key. The seed corpus is
// testdata/fuzz/FuzzCompositeStream.
func FuzzCompositeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		idx, err := lsm.Open(t.TempDir(), &lsm.Options{MemTableBytes: 256, BlockSize: 64, BaseLevelBytes: 1 << 10, LevelMultiplier: 2, L0CompactionTrigger: 2, MaxLevels: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		for _, op := range ops {
			value, pk := compositeStreamValues[op>>3&3], fmt.Sprintf("p%d", op>>5)
			switch op & 7 {
			case 0, 1, 2, 3:
				err = compositeWrite(idx, []byte(value), pk, 0, false)
			case 4, 5:
				err = compositeWrite(idx, []byte(value), pk, 0, true)
			case 6:
				err = idx.Flush()
			case 7:
				err = idx.CompactRange(nil, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		checkCompositeStream(t, idx)
	})
}

// checkCompositeStream holds the first occurrences of compositeSource's
// stream over idx to those of the retired merged scan, for every range of
// compositeStreamValues.
func checkCompositeStream(t *testing.T, idx *lsm.DB) {
	t.Helper()
	for i, lo := range compositeStreamValues {
		for _, hi := range compositeStreamValues[i:] {
			want, err := refCompositeStream(idx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var got []streamed
			err = idx.View(func(v *lsm.View) error {
				src := newCompositeSource(v, lo, hi, nil)
				for key, seq, del, ok := src.next(); ok; key, seq, del, ok = src.next() {
					got = append(got, streamed{string(key), seq, del})
				}
				return src.err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := firstOccurrences(got), firstOccurrences(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("[%s, %s]: stream %v\n want %v", lo, hi, got, want)
			}
		}
	}
}

// TestCompositeStreamInterleavedTables runs FuzzCompositeStream's check on
// an index table whose levels hold several tables. Compactions that move
// one table of a level down leave tables whose seq ranges interleave, so
// the source must open every unit whose MaxSeq is above its top before
// yielding it.
func TestCompositeStreamInterleavedTables(t *testing.T) {
	idx, err := lsm.Open(t.TempDir(), &lsm.Options{MemTableBytes: 256 << 10, DisableCompression: true, BaseLevelBytes: 1 << 20, LevelMultiplier: 4, L0CompactionTrigger: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	pad := bytes.Repeat([]byte{'x'}, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000 && err == nil; i++ {
		ck := compositeKey(compositeStreamValues[rng.Intn(len(compositeStreamValues))], fmt.Sprintf("p%04d", rng.Intn(3000)))
		if rng.Intn(5) == 0 {
			err = idx.DeleteAt(ck, 0)
		} else {
			err = idx.PutAt(ck, pad, 0)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	err = idx.View(func(v *lsm.View) error {
		for _, s := range v.Strata() {
			multi = multi || s.Level > 0 && len(s.Tables) > 1
		}
		return nil
	})
	if err != nil || !multi {
		t.Fatalf("no level holds several tables (%v)", err)
	}
	checkCompositeStream(t, idx)
}

// heapify orders h into a heap whose root is the element no other is
// before, in O(len(h)).
func heapify[T any](h []T, before func(a, b T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, before)
	}
}
