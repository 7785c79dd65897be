package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var allKinds = []IndexKind{IndexNone, IndexEmbedded, IndexEager, IndexLazy, IndexComposite}

// smallOptions makes flushes and compactions happen within a few hundred
// writes so every index path (MemTable, L0, deeper levels) is exercised.
func smallOptions(kind IndexKind) Options {
	return Options{
		Index:               kind,
		Attrs:               []string{"UserID", "CreationTime"},
		MemTableBytes:       8 << 10,
		BlockSize:           1 << 10,
		BaseLevelBytes:      32 << 10,
		LevelMultiplier:     4,
		L0CompactionTrigger: 3,
		MaxLevels:           5,
	}
}

func TestParseIndexKind(t *testing.T) {
	cases := map[string]IndexKind{"none": IndexNone, "LAZY": IndexLazy}
	for _, k := range allKinds {
		cases[strings.ToLower(k.String())] = k
	}
	for in, want := range cases {
		if got, err := ParseIndexKind(in); err != nil || got != want {
			t.Errorf("ParseIndexKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"btree", "", "IndexKind(5)"} {
		if _, err := ParseIndexKind(bad); err == nil {
			t.Errorf("ParseIndexKind(%q) accepted", bad)
		}
	}
}

// TestOpenRejectsBadAttrs opens every kind with an empty attribute name,
// with one listed twice (two tables on one index directory) and with one
// holding a path separator (an index directory inside another table's):
// Open fails, naming the attribute, before it creates anything.
func TestOpenRejectsBadAttrs(t *testing.T) {
	for _, kind := range allKinds {
		for _, attrs := range [][]string{{""}, {"UserID", ""}, {"UserID", "UserID"}, {"UserID", "CreationTime", "UserID"},
			{"a/../primary"}, {"UserID", "Place/Name"}} {
			dir := filepath.Join(t.TempDir(), "db")
			opts := smallOptions(kind)
			opts.Attrs = attrs
			db, err := Open(dir, opts)
			if err == nil {
				db.Close()
				t.Fatalf("%v: Open with Attrs %q succeeded", kind, attrs)
			}
			if name := attrs[len(attrs)-1]; !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Errorf("%v, Attrs %q: error %q does not name %q", kind, attrs, err, name)
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%v, Attrs %q: the failed Open left %s (%v)", kind, attrs, dir, err)
			}
		}
	}
}

func openKind(t testing.TB, kind IndexKind) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), smallOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func tweetDoc(user string, ts int, text string) []byte {
	return []byte(fmt.Sprintf(`{"UserID":%q,"CreationTime":"%010d","Text":%q}`, user, ts, text))
}

// model is the reference implementation: a map of current records with
// insertion counters.
type model struct {
	recs    map[string]modelRec
	counter uint64
}

type modelRec struct {
	user string
	time string
	seq  uint64
}

func newModel() *model { return &model{recs: map[string]modelRec{}} }

func (m *model) put(key, user string, ts int) {
	m.counter++
	m.recs[key] = modelRec{user: user, time: fmt.Sprintf("%010d", ts), seq: m.counter}
}

func (m *model) del(key string) {
	m.counter++
	delete(m.recs, key)
}

// lookup returns primary keys whose attr ∈ [lo, hi], newest first, top k.
func (m *model) lookup(attr, lo, hi string, k int) []string {
	type cand struct {
		key string
		seq uint64
	}
	var cs []cand
	for key, r := range m.recs {
		v := r.user
		if attr == "CreationTime" {
			v = r.time
		}
		if v >= lo && v <= hi {
			cs = append(cs, cand{key, r.seq})
		}
	}
	// Sort newest first.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].seq > cs[j-1].seq; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	if k > 0 && len(cs) > k {
		cs = cs[:k]
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.key
	}
	return out
}

func keysOf(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBasicOperationsAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			if err := db.Put("t1", tweetDoc("u1", 100, "hello")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put("t2", tweetDoc("u1", 101, "world")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put("t3", tweetDoc("u2", 102, "third")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := db.Get("t1")
			if err != nil || !ok {
				t.Fatalf("Get: %v %v", ok, err)
			}
			if string(v) != string(tweetDoc("u1", 100, "hello")) {
				t.Fatalf("Get value = %s", v)
			}

			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t2", "t1"}) {
				t.Fatalf("Lookup(u1) = %v", keysOf(got))
			}
			got, err = db.Lookup("UserID", "u1", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t2"}) {
				t.Fatalf("Lookup(u1, k=1) = %v", keysOf(got))
			}
			got, err = db.Lookup("UserID", "nobody", 0)
			if err != nil || len(got) != 0 {
				t.Fatalf("Lookup(nobody) = %v, %v", keysOf(got), err)
			}

			got, err = db.RangeLookup("CreationTime", "0000000100", "0000000101", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t2", "t1"}) {
				t.Fatalf("RangeLookup = %v", keysOf(got))
			}

			if _, err := db.Lookup("NoSuchAttr", "x", 1); err != ErrUnknownAttr {
				t.Fatalf("unknown attr error = %v", err)
			}
		})
	}
}

func TestUpdateMovesKeyBetweenAttrValues(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", tweetDoc("u1", 100, "original"))
			db.Put("t1", tweetDoc("u2", 100, "moved")) // UserID changes u1 → u2
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("stale index entry returned: %v", keysOf(got))
			}
			got, err = db.Lookup("UserID", "u2", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t1"}) {
				t.Fatalf("Lookup(u2) = %v, %v", keysOf(got), err)
			}
		})
	}
}

func TestDeleteRemovesFromLookups(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", tweetDoc("u1", 100, "a"))
			db.Put("t2", tweetDoc("u1", 101, "b"))
			if err := db.Delete("t1"); err != nil {
				t.Fatal(err)
			}
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t2"}) {
				t.Fatalf("after delete: %v, %v", keysOf(got), err)
			}
			if err := db.Delete("never-existed"); err != nil {
				t.Fatalf("deleting a missing key: %v", err)
			}
		})
	}
}

// TestDifferentialAllKinds runs the same randomized workload — puts,
// attribute-changing updates, deletes — through every index kind and
// checks every lookup against the reference model, at several top-K
// settings, with enough volume to push data through flushes and multiple
// compaction levels.
func TestDifferentialAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			m := newModel()
			rng := rand.New(rand.NewSource(42))

			users := 25
			nOps := 4000
			if testing.Short() {
				nOps = 1000
			}
			check := func(opIdx int) {
				for _, k := range []int{1, 5, 0} {
					user := fmt.Sprintf("u%03d", rng.Intn(users))
					got, err := db.Lookup("UserID", user, k)
					if err != nil {
						t.Fatalf("op %d: Lookup: %v", opIdx, err)
					}
					want := m.lookup("UserID", user, user, k)
					if !sameKeys(keysOf(got), want) {
						t.Fatalf("op %d k=%d user=%s:\n got %v\nwant %v", opIdx, k, user, keysOf(got), want)
					}
				}
				// Range over CreationTime.
				lo := rng.Intn(nOps)
				hi := lo + rng.Intn(200)
				loS, hiS := fmt.Sprintf("%010d", lo), fmt.Sprintf("%010d", hi)
				for _, k := range []int{3, 0} {
					got, err := db.RangeLookup("CreationTime", loS, hiS, k)
					if err != nil {
						t.Fatalf("op %d: RangeLookup: %v", opIdx, err)
					}
					want := m.lookup("CreationTime", loS, hiS, k)
					if !sameKeys(keysOf(got), want) {
						t.Fatalf("op %d k=%d range=[%s,%s]:\n got %v\nwant %v", opIdx, k, loS, hiS, keysOf(got), want)
					}
				}
			}

			for i := 0; i < nOps; i++ {
				switch r := rng.Intn(20); {
				case r == 0: // delete an existing key
					key := fmt.Sprintf("t%05d", rng.Intn(i+1))
					if err := db.Delete(key); err != nil {
						t.Fatal(err)
					}
					m.del(key)
				case r <= 3: // update an existing key (attr may change)
					key := fmt.Sprintf("t%05d", rng.Intn(i+1))
					user := fmt.Sprintf("u%03d", rng.Intn(users))
					if err := db.Put(key, tweetDoc(user, i, "updated")); err != nil {
						t.Fatal(err)
					}
					m.put(key, user, i)
				default: // fresh insert
					key := fmt.Sprintf("t%05d", i)
					user := fmt.Sprintf("u%03d", rng.Intn(users))
					if err := db.Put(key, tweetDoc(user, i, "tweet text goes here for padding")); err != nil {
						t.Fatal(err)
					}
					m.put(key, user, i)
				}
				if i%500 == 499 {
					check(i)
				}
			}
			check(nOps)
		})
	}
}

func TestTopKReturnsNewestFirstWithValues(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			for i := 0; i < 50; i++ {
				db.Put(fmt.Sprintf("t%03d", i), tweetDoc("u1", i, fmt.Sprintf("msg-%d", i)))
			}
			got, err := db.Lookup("UserID", "u1", 3)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t049", "t048", "t047"}) {
				t.Fatalf("top-3 = %v", keysOf(got))
			}
			// Values must be the current documents.
			if want := string(tweetDoc("u1", 49, "msg-49")); string(got[0].Value) != want {
				t.Fatalf("value = %s", got[0].Value)
			}
			// Seq ordering strictly decreasing.
			for i := 1; i < len(got); i++ {
				if got[i].Seq >= got[i-1].Seq {
					t.Fatal("results not ordered by recency")
				}
			}
		})
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := smallOptions(kind)
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 800; i++ {
				db.Put(fmt.Sprintf("t%04d", i), tweetDoc(fmt.Sprintf("u%02d", i%10), i, "persisted tweet"))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got, err := db2.Lookup("UserID", "u03", 5)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"t0793", "t0783", "t0773", "t0763", "t0753"}
			if !sameKeys(keysOf(got), want) {
				t.Fatalf("after reopen: %v want %v", keysOf(got), want)
			}
		})
	}
}

func TestEmbeddedAblationsSameResults(t *testing.T) {
	base := openKind(t, IndexEmbedded)
	optsNoLite := smallOptions(IndexEmbedded)
	optsNoLite.DisableGetLite = true
	noLite, err := Open(t.TempDir(), optsNoLite)
	if err != nil {
		t.Fatal(err)
	}
	defer noLite.Close()
	optsNoZone := smallOptions(IndexEmbedded)
	optsNoZone.DisableFileZoneMap = true
	noZone, err := Open(t.TempDir(), optsNoZone)
	if err != nil {
		t.Fatal(err)
	}
	defer noZone.Close()

	m := newModel()
	rng := rand.New(rand.NewSource(7))
	put := func(key string, i int) {
		user := fmt.Sprintf("u%02d", rng.Intn(20))
		doc := tweetDoc(user, i, "ablation test tweet")
		for _, db := range []*DB{base, noLite, noZone} {
			if err := db.Put(key, doc); err != nil {
				t.Fatal(err)
			}
		}
		m.put(key, user, i)
	}
	for i := 0; i < 2000; i++ {
		put(fmt.Sprintf("t%05d", i), i)
	}
	// Re-put old keys under a fresh random UserID, flushing after all but
	// the last round, so older versions of a document — under its old
	// UserID or the same one — sit in deeper strata than its newest, the
	// MemTable included.
	for round := 0; round < 4; round++ {
		for j := 0; j < 150; j++ {
			put(fmt.Sprintf("t%05d", rng.Intn(2000)), 2000+150*round+j)
		}
		if round == 3 {
			break
		}
		for _, db := range []*DB{base, noLite, noZone} {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("u%02d", u)
		for _, k := range []int{1, 10, 0} {
			want, err := base.Lookup("UserID", user, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(want), m.lookup("UserID", user, user, k)) {
				t.Fatalf("base k=%d user=%s: %v want %v", k, user, keysOf(want), m.lookup("UserID", user, user, k))
			}
			for name, db := range map[string]*DB{"noGetLite": noLite, "noFileZone": noZone} {
				got, err := db.Lookup("UserID", user, k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameKeys(keysOf(got), keysOf(want)) {
					t.Fatalf("%s k=%d user=%s: %v want %v", name, k, user, keysOf(got), keysOf(want))
				}
			}
		}
	}
}

func TestIndexCostCharacteristics(t *testing.T) {
	// Sanity-check the paper's headline cost relationships on a small
	// ingest: Embedded writes no index-table blocks; Eager's index I/O
	// exceeds Lazy's (read-modify-write vs blind fragment writes).
	write := func(kind IndexKind) Stats {
		db := openKind(t, kind)
		for i := 0; i < 3000; i++ {
			db.Put(fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", i%30), i, "cost characteristics tweet body"))
		}
		db.Flush()
		return db.Stats()
	}
	emb := write(IndexEmbedded)
	eager := write(IndexEager)
	lazy := write(IndexLazy)

	if emb.Index.TotalIO() != 0 {
		t.Errorf("Embedded index-table I/O should be zero, got %d", emb.Index.TotalIO())
	}
	if eagerIO, lazyIO := eager.Index.TotalIO(), lazy.Index.TotalIO(); eagerIO <= lazyIO {
		t.Errorf("Eager index I/O (%d) should exceed Lazy (%d)", eagerIO, lazyIO)
	}
	if eager.Index.BlockReads == 0 {
		t.Error("Eager must read the index table on writes")
	}
	if lazy.Index.BlockReads != 0 {
		t.Errorf("Lazy writes must not read the index table, got %d reads", lazy.Index.BlockReads)
	}
}

func TestRangeLookupInvertedAndEmpty(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", tweetDoc("u5", 100, "x"))
			if got, err := db.RangeLookup("UserID", "u9", "u1", 0); err != nil || len(got) != 0 {
				t.Fatalf("inverted range: %v %v", got, err)
			}
			if got, err := db.RangeLookup("UserID", "v0", "v9", 0); err != nil || len(got) != 0 {
				t.Fatalf("empty range: %v %v", got, err)
			}
		})
	}
}

func BenchmarkLookupTop10(b *testing.B) {
	for _, kind := range []IndexKind{IndexEmbedded, IndexEager, IndexLazy, IndexComposite} {
		b.Run(kind.String(), func(b *testing.B) {
			db, err := Open(b.TempDir(), smallOptions(kind))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 5000; i++ {
				db.Put(fmt.Sprintf("t%06d", i), tweetDoc(fmt.Sprintf("u%02d", i%50), i, "benchmark tweet body text"))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Lookup("UserID", fmt.Sprintf("u%02d", i%50), 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestWAMFOrderingEagerVsLazy(t *testing.T) {
	// Table 5: WAMF_Eager = PL_S × WAMF_Lazy — Eager rewrites whole
	// posting lists on every write. Measure both on identical ingests.
	run := func(kind IndexKind) float64 {
		db := openKind(t, kind)
		for i := 0; i < 3000; i++ {
			db.Put(fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", i%25), i, "wamf measurement tweet"))
		}
		db.Flush()
		_, idx := db.WriteAmplification()
		return idx["UserID"]
	}
	eager, lazy := run(IndexEager), run(IndexLazy)
	if eager <= 2*lazy {
		t.Errorf("Eager index WAMF (%.2f) must far exceed Lazy (%.2f)", eager, lazy)
	}
	t.Logf("measured index-table WAMF: eager=%.1f lazy=%.1f ratio=%.1f", eager, lazy, eager/lazy)
}

// TestWriteAmplificationOneSnapshot checks WriteAmplification, which reads
// the ingest bytes and the bytes written from one primary snapshot,
// against the older derivation that recovered the ingest denominator by
// dividing the bytes written by the primary's separately read WAMF. On a
// quiescent DB the two agree: exactly before the first flush, and to the
// last bits of the recovered denominator after a flush and a compaction.
func TestWriteAmplificationOneSnapshot(t *testing.T) {
	derived := func(db *DB) (float64, map[string]float64) {
		ps := db.primary.Stats().Snapshot()
		written := float64(ps.BlockWriteBytes + ps.CompactionWriteBytes)
		primary, ingest := 0.0, float64(ps.BlockWriteBytes)
		if ps.IngestBytes > 0 {
			primary = written / float64(ps.IngestBytes)
		}
		if primary > 0 {
			ingest = written / primary
		}
		index := map[string]float64{}
		for attr, idx := range db.indexes {
			if is := idx.Stats().Snapshot(); ingest > 0 {
				index[attr] = float64(is.BlockWriteBytes+is.CompactionWriteBytes) / ingest
			}
		}
		return primary, index
	}
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			var user int64
			put := func(from, to int) {
				for i := from; i < to; i++ {
					key, doc := fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", i%25), i, "wamf tweet")
					if err := db.Put(key, doc); err != nil {
						t.Fatal(err)
					}
					user += int64(len(key) + len(doc))
				}
			}
			put(0, 20) // stays in the MemTable
			if got := db.Stats().Primary.IngestBytes; got != user {
				t.Fatalf("primary IngestBytes = %d, want %d", got, user)
			}
			primary, index := db.WriteAmplification()
			if primary != 0 || len(index) != 0 {
				t.Fatalf("before the first flush: WriteAmplification = %v %v, want 0 and none", primary, index)
			}

			put(20, 1500)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			if db.Stats().Primary.CompactionWriteBytes == 0 {
				t.Fatal("no primary compaction ran")
			}
			primary, index = db.WriteAmplification()
			wantPrimary, wantIndex := derived(db)
			if primary != wantPrimary || primary <= 0 {
				t.Fatalf("primary WAMF = %v, want %v", primary, wantPrimary)
			}
			if len(index) != len(wantIndex) {
				t.Fatalf("index WAMF = %v, want %v", index, wantIndex)
			}
			for attr, want := range wantIndex {
				if got := index[attr]; got <= 0 || math.Abs(got-want) > 1e-12*want {
					t.Fatalf("index WAMF[%s] = %v, want %v", attr, got, want)
				}
			}
		})
	}
}

// TestDebugStringTableOrder: the debug listing walks the tables in one
// fixed order, the primary and then the index tables in Options.Attrs
// order, so it reads the same on every call.
func TestDebugStringTableOrder(t *testing.T) {
	db := openKind(t, IndexLazy)
	for i := 0; i < 200; i++ {
		if err := db.Put(fmt.Sprintf("k%03d", i), tweetDoc(fmt.Sprintf("u%d", i%7), i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	first := db.DebugString()
	p, u, c := strings.Index(first, "primary:"), strings.Index(first, "index-UserID:"), strings.Index(first, "index-CreationTime:")
	if !(p == 0 && p < u && u < c) {
		t.Fatalf("tables out of order:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		if got := db.DebugString(); got != first {
			t.Fatalf("call %d:\n%s\ndiffers from the first:\n%s", i+2, got, first)
		}
	}
}
