package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestCoreBatchAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			var b Batch
			b.Put("t1", tweetDoc("u1", 1, "a"))
			b.Put("t2", tweetDoc("u1", 2, "b"))
			b.Put("t3", tweetDoc("u2", 3, "c"))
			b.Delete("t1")
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get("t1"); ok {
				t.Fatal("intra-batch delete lost")
			}
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t2"}) {
				t.Fatalf("Lookup after batch = %v", keysOf(got))
			}
		})
	}
}

func TestCoreBatchDeleteExistingKey(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", tweetDoc("u1", 1, "old"))
			var b Batch
			b.Delete("t1")
			b.Put("t2", tweetDoc("u1", 2, "new"))
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			got, _ := db.Lookup("UserID", "u1", 0)
			if !sameKeys(keysOf(got), []string{"t2"}) {
				t.Fatalf("after batch delete: %v", keysOf(got))
			}
		})
	}
}

func TestCoreBatchLargeMatchesIndividualPuts(t *testing.T) {
	for _, kind := range []IndexKind{IndexEmbedded, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			batched := openKind(t, kind)
			individual := openKind(t, kind)
			var b Batch
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("t%04d", i)
				doc := tweetDoc(fmt.Sprintf("u%02d", i%20), i, "batch vs individual")
				b.Put(key, doc)
				if err := individual.Put(key, doc); err != nil {
					t.Fatal(err)
				}
				if b.Len() == 100 {
					if err := batched.Apply(&b); err != nil {
						t.Fatal(err)
					}
					b.Reset()
				}
			}
			if err := batched.Apply(&b); err != nil {
				t.Fatal(err)
			}
			for u := 0; u < 20; u++ {
				user := fmt.Sprintf("u%02d", u)
				a, err := batched.Lookup("UserID", user, 0)
				if err != nil {
					t.Fatal(err)
				}
				bI, err := individual.Lookup("UserID", user, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameKeys(keysOf(a), keysOf(bI)) {
					t.Fatalf("user %s: batched %v != individual %v", user, keysOf(a), keysOf(bI))
				}
			}
		})
	}
}

func TestCoreScan(t *testing.T) {
	db := openKind(t, IndexEmbedded)
	for i := 0; i < 50; i++ {
		db.Put(fmt.Sprintf("t%03d", i), tweetDoc("u1", i, "x"))
	}
	db.Delete("t010")
	db.Put("t011", tweetDoc("u2", 11, "updated"))

	var keys []string
	err := db.Scan("t005", "t015", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"t005", "t006", "t007", "t008", "t009", "t011", "t012", "t013", "t014", "t015"}
	if !sameKeys(keys, want) {
		t.Fatalf("Scan = %v", keys)
	}
	// Early stop.
	n := 0
	db.Scan("", "", func(string, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestCoreCheckpointAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			for i := 0; i < 300; i++ {
				db.Put(fmt.Sprintf("t%04d", i), tweetDoc(fmt.Sprintf("u%d", i%5), i, "checkpointed"))
			}
			ckpt := t.TempDir() + "/snap"
			if err := db.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			db.Put("t9999", tweetDoc("u1", 9999, "after"))

			snap, err := Open(ckpt, smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			got, err := snap.Lookup("UserID", "u1", 2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t0296", "t0291"}) {
				t.Fatalf("snapshot lookup = %v", keysOf(got))
			}
			if _, ok, _ := snap.Get("t9999"); ok {
				t.Fatal("post-checkpoint write leaked")
			}
		})
	}
}

// TestPutBufferReusable writes every document from one buffer, which the
// caller overwrites as soon as Put returns: with the next document, and
// at the end with a document of another user. The MemTables hold copies,
// so GET, LOOKUP and RANGELOOKUP answer from them for every kind, before
// and after a Flush.
func TestPutBufferReusable(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{Index: kind,
				Attrs: []string{"UserID", "CreationTime"}, MemTableBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var buf []byte
			docs := map[string]string{}
			for i := 0; i < 40; i++ {
				key, doc := fmt.Sprintf("t%03d", i), tweetDoc(fmt.Sprintf("u%d", i%4), i, "text")
				buf = append(buf[:0], doc...)
				if err := db.Put(key, buf); err != nil {
					t.Fatal(err)
				}
				docs[key] = string(doc)
			}
			copy(buf, tweetDoc("u9", 99, "text"))
			// answer renders entries as sorted key=document lines.
			answer := func(es []Entry) string {
				var lines []string
				for _, e := range es {
					lines = append(lines, e.Key+"="+string(e.Value))
				}
				sort.Strings(lines)
				return strings.Join(lines, "\n")
			}
			// want renders the documents of keys t{lo..hi} whose index
			// is u modulo 4 (u < 0: every one).
			want := func(lo, hi, u int) string {
				var es []Entry
				for i := lo; i <= hi; i++ {
					if u < 0 || i%4 == u {
						key := fmt.Sprintf("t%03d", i)
						es = append(es, Entry{Key: key, Value: []byte(docs[key])})
					}
				}
				return answer(es)
			}
			check := func(when string) {
				t.Helper()
				for key, doc := range docs {
					got, ok, err := db.Get(key)
					if err != nil || !ok || string(got) != doc {
						t.Fatalf("%s: Get(%s) = %q, %v, %v; want %q", when, key, got, ok, err, doc)
					}
				}
				for u := 0; u < 4; u++ {
					got, err := db.Lookup("UserID", fmt.Sprintf("u%d", u), 0)
					if err != nil {
						t.Fatal(err)
					}
					if answer(got) != want(0, 39, u) {
						t.Fatalf("%s: LOOKUP u%d =\n%s\nwant\n%s", when, u, answer(got), want(0, 39, u))
					}
				}
				got, err := db.RangeLookup("CreationTime", fmt.Sprintf("%010d", 10), fmt.Sprintf("%010d", 19), 0)
				if err != nil {
					t.Fatal(err)
				}
				if answer(got) != want(10, 19, -1) {
					t.Fatalf("%s: RANGELOOKUP =\n%s\nwant\n%s", when, answer(got), want(10, 19, -1))
				}
			}
			check("in the MemTables")
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after Flush")
		})
	}
}
