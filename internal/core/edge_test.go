package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestDocumentsWithoutIndexedAttr(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			// Some docs lack UserID entirely; they are stored but never
			// indexed under it.
			db.Put("t1", []byte(`{"UserID":"u1","CreationTime":"0000000001"}`))
			db.Put("t2", []byte(`{"CreationTime":"0000000002"}`))
			db.Put("t3", []byte(`{"UserID":"u1","CreationTime":"0000000003"}`))
			if _, ok, _ := db.Get("t2"); !ok {
				t.Fatal("doc without attr not stored")
			}
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t3", "t1"}) {
				t.Fatalf("lookup = %v", keysOf(got))
			}
			// Its other attribute still works.
			got, err = db.RangeLookup("CreationTime", "0000000002", "0000000002", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t2"}) {
				t.Fatalf("time range = %v, %v", keysOf(got), err)
			}
		})
	}
}

func TestNonStringAttrValuesSkipped(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", []byte(`{"UserID":42,"CreationTime":"0000000001"}`))    // number
			db.Put("t2", []byte(`{"UserID":["a"],"CreationTime":"0000000002"}`)) // array
			db.Put("t3", []byte(`{"UserID":"u1","CreationTime":"0000000003"}`))
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t3"}) {
				t.Fatalf("lookup = %v, %v", keysOf(got), err)
			}
			if got, _ := db.Lookup("UserID", "42", 0); len(got) != 0 {
				t.Fatal("numeric attr wrongly indexed as string")
			}
		})
	}
}

func TestMalformedJSONStoredButUnindexed(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			if err := db.Put("bad", []byte(`{not json`)); err != nil {
				t.Fatalf("malformed JSON rejected at Put: %v", err)
			}
			v, ok, err := db.Get("bad")
			if err != nil || !ok || string(v) != `{not json` {
				t.Fatal("malformed doc not retrievable verbatim")
			}
			db.Put("good", tweetDoc("u1", 1, "x"))
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"good"}) {
				t.Fatalf("lookup = %v, %v", keysOf(got), err)
			}
			// Deleting the malformed doc must not error either.
			if err := db.Delete("bad"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAttrValueWithNULUnindexed(t *testing.T) {
	db := openKind(t, IndexComposite)
	doc := []byte("{\"UserID\":\"u\\u0000evil\",\"CreationTime\":\"0000000001\"}")
	if err := db.Put("t1", doc); err != nil {
		t.Fatal(err)
	}
	// The NUL-bearing value is unindexable (would corrupt composite-key
	// framing) but the record itself is intact.
	if _, ok, _ := db.Get("t1"); !ok {
		t.Fatal("record lost")
	}
	if got, err := db.Lookup("UserID", "u\x00evil", 0); err != nil || len(got) != 0 {
		t.Fatalf("NUL value indexed: %v %v", keysOf(got), err)
	}
}

func TestLargeDocuments(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			// 64 KiB documents — far beyond the 1 KiB block size.
			big := strings.Repeat("x", 64<<10)
			for i := 0; i < 10; i++ {
				doc := []byte(fmt.Sprintf(`{"UserID":"u1","CreationTime":"%010d","Text":%q}`, i, big))
				if err := db.Put(fmt.Sprintf("t%d", i), doc); err != nil {
					t.Fatal(err)
				}
			}
			db.Flush()
			v, ok, err := db.Get("t5")
			if err != nil || !ok || !bytes.Contains(v, []byte("xxxx")) || len(v) < 64<<10 {
				t.Fatalf("large doc mangled: len=%d ok=%v err=%v", len(v), ok, err)
			}
			got, err := db.Lookup("UserID", "u1", 3)
			if err != nil || !sameKeys(keysOf(got), []string{"t9", "t8", "t7"}) {
				t.Fatalf("lookup over large docs = %v, %v", keysOf(got), err)
			}
		})
	}
}

func TestTopKLargerThanMatches(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", tweetDoc("u1", 1, "only"))
			got, err := db.Lookup("UserID", "u1", 100)
			if err != nil || !sameKeys(keysOf(got), []string{"t1"}) {
				t.Fatalf("k>matches: %v, %v", keysOf(got), err)
			}
		})
	}
}

func TestEmptyAttributeValue(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			db.Put("t1", []byte(`{"UserID":"","CreationTime":"0000000001"}`))
			db.Put("t2", tweetDoc("u1", 2, "x"))
			got, err := db.Lookup("UserID", "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keysOf(got), []string{"t1"}) {
				t.Fatalf("empty-value lookup = %v", keysOf(got))
			}
		})
	}
}

func TestRepeatedOverwritesSameAttr(t *testing.T) {
	// Overwriting with the same attribute value must not duplicate
	// results and must report the newest document.
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			for i := 0; i < 30; i++ {
				db.Put("t1", tweetDoc("u1", i, fmt.Sprintf("rev-%d", i)))
			}
			got, err := db.Lookup("UserID", "u1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Key != "t1" {
				t.Fatalf("duplicates: %v", keysOf(got))
			}
			if !bytes.Contains(got[0].Value, []byte("rev-29")) {
				t.Fatalf("stale document returned: %s", got[0].Value)
			}
		})
	}
}

func TestCoreCompactRange(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			for i := 0; i < 1500; i++ {
				db.Put(fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", i%10), i, "to be compacted"))
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			got, err := db.Lookup("UserID", "u03", 5)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"t01493", "t01483", "t01473", "t01463", "t01453"}
			if !sameKeys(keysOf(got), want) {
				t.Fatalf("after compact: %v", keysOf(got))
			}
		})
	}
}

func TestAccessorsAndDebugString(t *testing.T) {
	db := openKind(t, IndexLazy)
	if db.Kind() != IndexLazy {
		t.Fatal("Kind mismatch")
	}
	for i := 0; i < 500; i++ {
		db.Put(fmt.Sprintf("t%04d", i), tweetDoc(fmt.Sprintf("u%d", i%5), i, "accessors"))
	}
	db.Flush()
	prim, idx, err := db.DiskUsage()
	if err != nil || prim <= 0 || idx <= 0 {
		t.Fatalf("DiskUsage = %d %d %v", prim, idx, err)
	}
	if db.FilterMemoryUsage() <= 0 {
		t.Fatal("FilterMemoryUsage zero after flush")
	}
	if db.LastSeq() == 0 {
		t.Fatal("LastSeq zero")
	}
	s := db.DebugString()
	if !strings.Contains(s, "primary:") || !strings.Contains(s, "index-UserID:") {
		t.Fatalf("DebugString = %q", s)
	}
}

func TestIndexKindStrings(t *testing.T) {
	want := map[IndexKind]string{
		IndexNone: "NoIndex", IndexEmbedded: "Embedded", IndexEager: "Eager",
		IndexLazy: "Lazy", IndexComposite: "Composite", IndexKind(99): "IndexKind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q want %q", int(k), k.String(), s)
		}
	}
}

func TestTopKHeapDirect(t *testing.T) {
	h := newTopK(2)
	if h.MinSeq() != 0 || len(h.h) != 0 {
		t.Fatal("empty heap state")
	}
	h.Add(Entry{Key: "a", Seq: 5})
	h.Add(Entry{Key: "b", Seq: 9})
	h.Add(Entry{Key: "c", Seq: 7}) // displaces seq 5
	if len(h.h) != 2 {
		t.Fatalf("Len = %d", len(h.h))
	}
	rs := h.Results()
	if rs[0].Key != "b" || rs[1].Key != "c" {
		t.Fatalf("Results = %v", rs)
	}
	if h.Worth(6) {
		t.Fatal("seq below min accepted as worth")
	}
	if !h.Worth(8) {
		t.Fatal("improving seq rejected")
	}
	// Unbounded heap keeps everything.
	u := newTopK(0)
	for i := 0; i < 100; i++ {
		u.Add(Entry{Seq: uint64(i)})
	}
	if len(u.h) != 100 || u.Full() {
		t.Fatal("unbounded heap truncated")
	}
}

func TestNestedAttributePaths(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOptions(kind)
			opts.Attrs = []string{"user.id", "meta.geo.city"}
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.Put("t1", []byte(`{"user":{"id":"alice","name":"A"},"meta":{"geo":{"city":"NYC"}}}`))
			db.Put("t2", []byte(`{"user":{"id":"bob"},"meta":{"geo":{"city":"NYC"}}}`))
			db.Put("t3", []byte(`{"user":{"id":"alice"},"meta":{"geo":{"city":"LA"}}}`))
			// A literal dotted field name takes precedence over traversal.
			db.Put("t4", []byte(`{"user.id":"carol"}`))

			got, err := db.Lookup("user.id", "alice", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t3", "t1"}) {
				t.Fatalf("nested lookup = %v, %v", keysOf(got), err)
			}
			got, err = db.Lookup("meta.geo.city", "NYC", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t2", "t1"}) {
				t.Fatalf("deep nested lookup = %v, %v", keysOf(got), err)
			}
			got, err = db.Lookup("user.id", "carol", 0)
			if err != nil || !sameKeys(keysOf(got), []string{"t4"}) {
				t.Fatalf("literal dotted field = %v, %v", keysOf(got), err)
			}
		})
	}
}
