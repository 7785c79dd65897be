package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// lazyFlushPin is the SHA-256 of every index table that
// TestLazyFlushMatchesWriteMerge's Flush writes. The values were taken
// from the engine that merged each Lazy index PUT into the key's
// MemTable fragment at write time; flush-time coalescing must write the
// same bytes.
var lazyFlushPin = map[string]string{
	"index-CreationTime/000001.sst": "c2e66ead11d9c0bc6393e2debc69e3838083c86126b108dea317189f1b012fb8",
	"index-UserID/000001.sst":       "7f758f27ee04101d57bcd4e634900d04b57150feeafecb9eb618a0d8cf7f2fa5",
}

// TestLazyFlushMatchesWriteMerge runs a Lazy workload of puts, re-puts
// that move documents between attribute values, deletes (of present and
// absent keys) and batches, all inside one MemTable, then flushes and
// pins every index table byte for byte.
func TestLazyFlushMatchesWriteMerge(t *testing.T) {
	opts := smallOptions(IndexLazy)
	opts.MemTableBytes = 64 << 20
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("t%04d", rng.Intn(900))
		switch {
		case i%17 == 0:
			err = db.Delete(key)
		case i%41 == 0:
			var b Batch
			b.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(12)), rng.Intn(400), "batched"))
			b.Delete(fmt.Sprintf("t%04d", rng.Intn(900)))
			b.Put(fmt.Sprintf("b%04d", i), tweetDoc("u00", rng.Intn(400), "batched"))
			err = db.Apply(&b)
		default:
			err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(12)), rng.Intn(400), "text"))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if tables, _ := filepath.Glob(filepath.Join(dir, "index-*", "*.sst")); len(tables) > 0 {
		t.Fatalf("the workload flushed an index MemTable early: %v", tables)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "index-*", "*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range tables {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(raw)
		rel, _ := filepath.Rel(dir, p)
		got[filepath.ToSlash(rel)] = hex.EncodeToString(s[:])
	}
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range lazyFlushPin {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != lazyFlushPin[name] {
			t.Errorf("%s: sha256 %q, pinned %q", name, got[name], lazyFlushPin[name])
		}
	}
}

// TestLazyMergeSalvage runs lazyMerger.Merge over fragment sets that hold
// an out-of-order fragment (seqs rise inside it; every seq is distinct),
// in either format and beside an undecodable one: the merge must write
// the reference postings.Merge of the fragments that decode, keep the key
// exactly when an entry survives, and book the entries and bytes it
// decoded and every fragment it was handed.
func TestLazyMergeSalvage(t *testing.T) {
	v1 := func(l postings.List) []byte {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rising := postings.List{{Key: "a", Seq: 3}, {Key: "b", Seq: 9}, {Key: "c", Seq: 5, Del: true}}
	older := postings.List{{Key: "b", Seq: 4}, {Key: "d", Seq: 2}}
	dead := postings.List{{Key: "a", Seq: 6, Del: true}, {Key: "e", Seq: 8, Del: true}}
	truncated := append(postings.AppendList(nil, postings.List{{Key: "z", Seq: 99}}), 0x80)
	for name, values := range map[string][][]byte{
		"v2":           {postings.AppendList(nil, rising), postings.AppendList(nil, older)},
		"v1-and-v2":    {postings.AppendList(nil, older), v1(rising)},
		"all-deleted":  {postings.AppendList(nil, dead)},
		"with-corrupt": {postings.AppendList(nil, rising), truncated, v1(older)},
		"dead-on-top":  {postings.AppendList(nil, dead), postings.AppendList(nil, rising), nil},
	} {
		for _, bottom := range []bool{false, true} {
			var decoded []postings.List
			var entries, nbytes int64
			for _, v := range values {
				if l, err := postings.Decode(v); err == nil {
					decoded = append(decoded, l)
					entries += int64(len(l))
					nbytes += int64(len(v))
				}
			}
			merged := postings.Merge(decoded, bottom)
			var want []byte
			if len(merged) > 0 {
				want = postings.AppendList(nil, merged)
			}
			st := &metrics.IOStats{}
			got, keep := (&lazyMerger{st: st}).Merge(nil, values, bottom)
			if !bytes.Equal(got, want) || keep != (len(merged) > 0) {
				t.Fatalf("%s bottom=%v: %x keep=%v, want %x keep=%v", name, bottom, got, keep, want, len(merged) > 0)
			}
			if e, b, f := st.PostingsEntriesDecoded.Load(), st.PostingsBytesDecoded.Load(), st.FragmentsMerged.Load(); e != entries || b != nbytes || f != int64(len(values)) {
				t.Fatalf("%s bottom=%v: booked %d entries, %d bytes, %d fragments; want %d, %d, %d",
					name, bottom, e, b, f, entries, nbytes, len(values))
			}
		}
	}
}
