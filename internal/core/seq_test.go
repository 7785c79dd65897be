package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/vfs/vfstest"
)

// TestIndexBeforeData parks a PUT, and an Apply, between its index and
// primary commits: at the write to the primary's WAL, which the commit
// leader makes after the index records are committed and before the
// MemTable insert, holding only the primary's log lock. A LOOKUP
// bracketed by two GETs that both show the new document must return it,
// while the writer is parked and after it finishes: the index records go
// first, so a visible document is never missing its posting.
func TestIndexBeforeData(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite} {
		for _, apply := range []bool{false, true} {
			name := kind.String() + "/put"
			if apply {
				name = kind.String() + "/apply"
			}
			t.Run(name, func(t *testing.T) {
				fs := vfstest.New()
				db, err := open(t.TempDir(), smallOptions(kind), fs)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for i, user := range []string{"c", "b"} {
					if err := db.Put("d", tweetDoc(user, i, "x")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Put("gone", tweetDoc("a", 2, "x")); err != nil {
					t.Fatal(err)
				}
				parked, release := fs.Park(func(op vfstest.Op, path string) bool {
					return op == vfstest.OpWrite && strings.HasPrefix(filepath.Base(path), "WAL-") &&
						filepath.Base(filepath.Dir(path)) == "primary"
				})
				done := make(chan error, 1)
				go func() {
					if !apply {
						done <- db.Put("d", tweetDoc("a", 3, "x"))
						return
					}
					var b Batch
					b.Put("d", tweetDoc("a", 3, "x"))
					b.Delete("gone")
					done <- db.Apply(&b)
				}()
				// bracketed reports whether both GETs showed d under a, and
				// fails if the LOOKUP between them missed it.
				bracketed := func(when string) bool {
					t.Helper()
					before, _, err1 := db.Get("d")
					got, err2 := db.Lookup("UserID", "a", 1)
					after, _, err3 := db.Get("d")
					if err := errors.Join(err1, err2, err3); err != nil {
						t.Fatal(err)
					}
					shown := attrInRange(before, "UserID", "a", "a") && attrInRange(after, "UserID", "a", "a")
					if shown && (len(got) != 1 || got[0].Key != "d") {
						t.Fatalf("%s: both GETs show d under a, LOOKUP returned %v", when, keysOf(got))
					}
					return shown
				}
				<-parked
				bracketed("writer parked")
				release()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if !bracketed("writer done") {
					t.Fatal("d is not under a after the write")
				}
			})
		}
	}
}

// TestEntrySeqAcrossKinds runs one workload — updates that move documents
// between values, documents without one or both attributes, deletes of
// present and absent keys, flushes and compactions — through every kind:
// each LOOKUP and RANGELOOKUP returns the same (Key, Seq) list from all
// five, Seq being the seq of the document's primary record.
func TestEntrySeqAcrossKinds(t *testing.T) {
	type query struct{ attr, lo, hi string }
	queries := []query{
		{"UserID", "u03", "u03"}, {"UserID", "u00", "u05"},
		{"CreationTime", "0000000100", "0000000300"}, {"CreationTime", "0000000000", "0000000999"},
	}
	var want []string
	for _, kind := range allKinds {
		db := openKind(t, kind)
		rng := rand.New(rand.NewSource(38))
		for i := 0; i < 800; i++ {
			key := fmt.Sprintf("t%04d", rng.Intn(250))
			var err error
			switch r := rng.Intn(20); {
			case r < 11:
				err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(8)), i, "both"))
			case r < 13:
				err = db.Put(key, []byte(fmt.Sprintf(`{"CreationTime":"%010d"}`, i)))
			case r < 15:
				err = db.Put(key, []byte(fmt.Sprintf(`{"UserID":"u%02d"}`, rng.Intn(8))))
			case r < 16:
				err = db.Put(key, []byte(`{"Text":"bare"}`))
			case r < 18:
				err = db.Delete(key)
			case r < 19:
				err = db.Delete(fmt.Sprintf("x%04d", i))
			default:
				if i%3 == 0 {
					err = db.CompactRange("", "")
				} else {
					err = db.Flush()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for _, k := range []int{1, 10, 0} {
			for _, q := range queries {
				var res []Entry
				var err error
				if q.lo == q.hi {
					res, err = db.Lookup(q.attr, q.lo, k)
				} else {
					res, err = db.RangeLookup(q.attr, q.lo, q.hi, k)
				}
				if err != nil {
					t.Fatal(err)
				}
				line := fmt.Sprintf("%s [%s, %s] k=%d:", q.attr, q.lo, q.hi, k)
				for _, e := range res {
					line += fmt.Sprintf(" %s@%d", e.Key, e.Seq)
				}
				got = append(got, line)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s:\n got %s\nwant %s (%s)", kind, got[i], want[i], allKinds[0])
			}
		}
	}
}

// TestPostingRangeSeqBoundSkipsDeepStrata: with a hot value's postings in
// the MemTable, level 0 and a deeper level of the index table, a K = 10
// RANGELOOKUP whose top 10 were the last writes reads no index block for
// Lazy, whose top 10 sit in the MemTable. Eager's lists are large enough
// that the last writes rotated the MemTable, so it reads the level-0 table
// that holds the hot list's previous versions, and no more blocks than the
// every-stratum gather of the oracle; nor does K = 0. Both answer as
// refCollect does.
func TestPostingRangeSeqBoundSkipsDeepStrata(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
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
			for ; i < 1500; i++ {
				put(i, user(i))
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			for end := i + 600; i < end; i++ {
				put(i, user(i))
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for end := i + 10; i < end; i++ {
				put(i, "hot")
			}
			levels := map[int]bool{}
			err := db.indexes["UserID"].View(func(v *lsm.View) error {
				for _, s := range v.Strata() {
					if !s.IsMem() && len(stratumTables(s, []byte("hot"), []byte("hot\x00"))) > 0 {
						levels[s.Level] = true
					}
				}
				return nil
			})
			if err != nil || !levels[0] || len(levels) < 2 {
				t.Fatalf("index levels holding hot = %v, %v; want 0 and a deeper one", levels, err)
			}
			for _, k := range []int{10, 0} {
				s0 := db.Stats()
				want, _, err := refCollect(db, "UserID", "hot", "hot", k, false)
				if err != nil {
					t.Fatal(err)
				}
				s1 := db.Stats()
				got, err := db.RangeLookup("UserID", "hot", "hot", k)
				if err != nil {
					t.Fatal(err)
				}
				s2 := db.Stats()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d:\n got %v\nwant %v", k, keysOf(got), keysOf(want))
				}
				reads, ref := s2.Index.BlockReads-s1.Index.BlockReads, s1.Index.BlockReads-s0.Index.BlockReads
				if k == 10 && (len(got) != 10 || reads > ref || kind == IndexLazy && reads != 0) {
					t.Errorf("k=10: %d results, %d index block reads, every-stratum gather %d", len(got), reads, ref)
				}
				if k == 0 && (reads > ref || reads == 0) {
					t.Errorf("k=0: %d index block reads, every-stratum gather %d", reads, ref)
				}
			}
		})
	}
}

// fuzzDoc is a model record: the document and the seq of its primary
// record.
type fuzzDoc struct {
	doc []byte
	seq uint64
}

// modelTopK renders the k newest documents of m whose attr lies in
// [lo, hi] as key@seq.
func modelTopK(m map[string]fuzzDoc, attr, lo, hi string, k int) []string {
	var keys []string
	for key, d := range m {
		if attrInRange(d.doc, attr, lo, hi) {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]].seq > m[keys[j]].seq })
	if len(keys) > k {
		keys = keys[:k]
	}
	for i, key := range keys {
		keys[i] = fmt.Sprintf("%s@%d", key, m[key].seq)
	}
	return keys
}

// FuzzPostingRangeTopK runs arbitrary PUT / DEL / Flush / CompactRange /
// reopen sequences through a Lazy or Eager DB — empty, or a copy of the
// kind's pre-seq fixture, whose index seqs lag the primary's — and holds
// every K ∈ {1, 3, 10} RANGELOOKUP's (Key, Seq) list to the model. The
// first input byte picks the kind (bit 0) and the start (bit 1). Each
// later pair of bytes is one operation: the first's low three bits pick it
// (0–2 a PUT of a document with both attributes, 3 with CreationTime
// only, 4 with neither, 5 a DEL, 6 Flush, 7 CompactRange or, with bit 3,
// a reopen), the second the key, UserID and CreationTime. The seed corpus
// is testdata/fuzz/FuzzPostingRangeTopK.
func FuzzPostingRangeTopK(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind := []IndexKind{IndexLazy, IndexEager}[data[0]&1]
		dir := t.TempDir()
		if data[0]&2 != 0 {
			dir = copyFixture(t, filepath.Join(preseqDir, kind.String()))
		}
		opts := preseqOptions(kind)
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { db.Close() }()
		m := map[string]fuzzDoc{}
		if err := db.primary.Scan(nil, nil, nil, func(k, v []byte, seq uint64) bool {
			m[string(k)] = fuzzDoc{bytes.Clone(v), seq}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		ops := data[1:min(len(data), 1+2*300)]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			key := fmt.Sprintf("t%04d", arg*7%300)
			var doc []byte
			switch op & 7 {
			case 0, 1, 2:
				doc = tweetDoc(fmt.Sprintf("u%02d", arg%10), 1000+3*arg, "fuzzed")
			case 3:
				doc = []byte(fmt.Sprintf(`{"CreationTime":"%010d"}`, 1000+3*arg))
			case 4:
				doc = []byte(`{"Text":"bare"}`)
			case 5:
				err = db.Delete(key)
				delete(m, key)
			case 6:
				err = db.Flush()
			case 7:
				if op&8 == 0 {
					err = db.CompactRange("", "")
				} else if err = db.Close(); err == nil {
					db, err = Open(dir, opts)
				}
			}
			if doc != nil {
				err = db.Put(key, doc)
				m[key] = fuzzDoc{doc, db.LastSeq()}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 3, 10} {
			for _, q := range preseqQueries {
				got, err := db.RangeLookup(q.attr, q.lo, q.hi, k)
				if err != nil {
					t.Fatal(err)
				}
				rendered := make([]string, len(got))
				for i, e := range got {
					rendered[i] = fmt.Sprintf("%s@%d", e.Key, e.Seq)
				}
				if want := modelTopK(m, q.attr, q.lo, q.hi, k); strings.Join(rendered, " ") != strings.Join(want, " ") {
					t.Fatalf("%s RANGELOOKUP %s [%s, %s] k=%d:\n got %v\nwant %v", kind, q.attr, q.lo, q.hi, k, rendered, want)
				}
			}
		}
	})
}

// TestPostingStreamInterleavedTables builds a Lazy index table whose
// levels hold several tables, so the seq ranges of its units interleave,
// and holds the first occurrences of postingUnits' stream to those of the
// retired every-stratum gather, decoded and stably sorted by seq, for
// ranges of values. The fragments carry long primary keys so that a few
// thousand writes fill multi-table levels; every tenth is a deletion
// marker.
func TestPostingStreamInterleavedTables(t *testing.T) {
	st := &metrics.IOStats{}
	idx, err := lsm.Open(t.TempDir(), &lsm.Options{MemTableBytes: 256 << 10, DisableCompression: true,
		BaseLevelBytes: 1 << 20, LevelMultiplier: 4, L0CompactionTrigger: 2,
		Stats: st, NewMerger: func() lsm.Merger { return &lazyMerger{st: st} }})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	pad := strings.Repeat("p", 400)
	rng := rand.New(rand.NewSource(1))
	var frag []byte
	for seq := uint64(1); seq <= 20000 && err == nil; seq++ {
		value := fmt.Sprintf("v%04d", rng.Intn(2000))
		frag = postings.AppendSingle(frag[:0], fmt.Sprintf("k%04d%s", rng.Intn(3000), pad), seq, rng.Intn(10) == 0)
		err = idx.PutAt([]byte(value), frag, seq)
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
	for _, r := range [][2]string{{"v0000", "v1999"}, {"v0100", "v0900"}, {"v1500", "v1510"}, {"v0007", "v0007"}} {
		frags, err := lazyRangeFragments(idx, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		var want []streamed
		for _, fr := range frags {
			l, err := postings.Decode(fr)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range l {
				want = append(want, streamed{e.Key, e.Seq, e.Del})
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].seq > want[j].seq })
		var got []streamed
		err = idx.View(func(v *lsm.View) error {
			h := &fragmentHeap{feed: newPostingUnits(v, []byte(r[0]), upperBoundExclusive(r[1]), 0, true, nil)}
			for key, seq, del, ok := h.next(); ok; key, seq, del, ok = h.next() {
				got = append(got, streamed{string(key), seq, del})
			}
			return h.err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := firstOccurrences(got), firstOccurrences(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("[%s, %s]: %d first occurrences, want %d", r[0], r[1], len(got), len(want))
		}
	}
}
