package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"leveldbpp/internal/sstable"
)

// refExtractAttrs is the extraction that shipped until PR 19, kept as the
// oracle scanAttrs is compared with: the whole document decoded into a
// map, one more decode per attribute. It departs from what shipped in one
// place, the null check: json.Unmarshal of null into a string is a silent
// no-op, which indexed {"UserID": null} under the empty string.
func refExtractAttrs(value []byte, attrs []string) []sstable.AttrValue {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(value, &doc); err != nil {
		return nil
	}
	var out []sstable.AttrValue
	for _, a := range attrs {
		raw, ok := refResolvePath(doc, a)
		if !ok || string(raw) == "null" {
			continue
		}
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			continue
		}
		if strings.IndexByte(s, compositeSep) >= 0 {
			continue // NUL would corrupt Composite key framing; unindexable
		}
		out = append(out, sstable.AttrValue{Attr: a, Value: s})
	}
	return out
}

// refResolvePath walks a dot path through nested JSON objects. A field
// whose literal name contains a dot takes precedence over path traversal.
func refResolvePath(doc map[string]json.RawMessage, path string) (json.RawMessage, bool) {
	if raw, ok := doc[path]; ok {
		return raw, true
	}
	head, rest, found := strings.Cut(path, ".")
	if !found {
		return nil, false
	}
	raw, ok := doc[head]
	if !ok {
		return nil, false
	}
	var sub map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, false
	}
	return refResolvePath(sub, rest)
}

// checkAgainstRef compares every way into the scanner with the oracle.
func checkAgainstRef(t *testing.T, doc []byte, attrs []string) {
	t.Helper()
	want := refExtractAttrs(doc, attrs)
	got := appendAttrValues(nil, doc, attrs)
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("doc %q attrs %q:\n scanner %q\n oracle  %q", doc, attrs, got, want)
	}
	for _, a := range attrs {
		var wantVal *string
		for i := range want {
			if want[i].Attr == a {
				wantVal = &want[i].Value
				break
			}
		}
		if in := attrInRange(doc, a, "", "\xff\xff\xff\xff\xff"); in != (wantVal != nil && *wantVal <= "\xff\xff\xff\xff\xff") {
			t.Fatalf("doc %q: attrInRange(%q, everything) = %v, oracle value %v", doc, a, in, wantVal)
		}
		if wantVal != nil && !attrInRange(doc, a, *wantVal, *wantVal) {
			t.Fatalf("doc %q: attrInRange(%q, %q) = false", doc, a, *wantVal)
		}
	}
}

func TestExtractAttrs(t *testing.T) {
	cases := []struct {
		doc   string
		attrs []string
		want  []sstable.AttrValue
	}{
		{`{"UserID":"u1","CreationTime":"0000000042","Text":"hi"}`, []string{"UserID", "CreationTime"},
			[]sstable.AttrValue{{Attr: "UserID", Value: "u1"}, {Attr: "CreationTime", Value: "0000000042"}}},
		{`{"CreationTime":"7","UserID":"u1"}`, []string{"UserID", "CreationTime"}, // output follows attrs, not the document
			[]sstable.AttrValue{{Attr: "UserID", Value: "u1"}, {Attr: "CreationTime", Value: "7"}}},
		{` { "UserID" : "" } `, []string{"UserID"}, []sstable.AttrValue{{Attr: "UserID", Value: ""}}},
		{`{"UserID":null}`, []string{"UserID"}, nil},
		{`{"UserID":7}`, []string{"UserID"}, nil},
		{`{"UserID":"a","UserID":"b"}`, []string{"UserID"}, []sstable.AttrValue{{Attr: "UserID", Value: "b"}}},
		{`{"UserID":"a","UserID":7}`, []string{"UserID"}, nil},
		{`{"a":{"b":"nested"},"a.b":"literal"}`, []string{"a.b"}, []sstable.AttrValue{{Attr: "a.b", Value: "literal"}}},
		{`{"a.b":"literal","a":{"b":"nested"}}`, []string{"a.b"}, []sstable.AttrValue{{Attr: "a.b", Value: "literal"}}},
		{`{"a.b":1,"a":{"b":"nested"}}`, []string{"a.b"}, nil}, // the literal key wins even when it indexes nothing
		{`{"a":{"b":"first"},"a":{"c":"second"}}`, []string{"a.b"}, nil},
		{`{"a":{"b":"first"},"a":"second"}`, []string{"a.b"}, nil},
		{`{"a":{"b":{"c":"deep"},"b.c":"mid"}}`, []string{"a.b.c"}, []sstable.AttrValue{{Attr: "a.b.c", Value: "mid"}}},
		{`{"a":{"b":{"c":"deep"}},"x":[{"a":1}]}`, []string{"a.b.c", "a.b"}, []sstable.AttrValue{{Attr: "a.b.c", Value: "deep"}}},
		{`{"user":{"id":"u","name":"n"}}`, []string{"user.name", "user.id", "user"},
			[]sstable.AttrValue{{Attr: "user.name", Value: "n"}, {Attr: "user.id", Value: "u"}}},
		{`{"\u0055serID":"esc\u0061ped \ud83d\ude00 \ud83d"}`, []string{"UserID"}, []sstable.AttrValue{{Attr: "UserID", Value: "escaped 😀 \ufffd"}}},
		{"{\"UserID\":\"bad\xffutf8\"}", []string{"UserID"}, []sstable.AttrValue{{Attr: "UserID", Value: "bad\ufffdutf8"}}},
		{`{"UserID":"nul\u0000"}`, []string{"UserID"}, nil},
		{`{"UserID":"u1","n":01}`, []string{"UserID"}, nil},
		{`{"UserID":"u1"} x`, []string{"UserID"}, nil},
		{`["UserID"]`, []string{"UserID"}, nil},
		{``, []string{"UserID"}, nil},
	}
	for _, c := range cases {
		got := appendAttrValues(nil, []byte(c.doc), c.attrs)
		if len(got) != len(c.want) || len(got) > 0 && !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %q = %q, want %q", c.doc, c.attrs, got, c.want)
		}
		checkAgainstRef(t, []byte(c.doc), c.attrs)
	}
}

// FuzzExtractAttrs is the differential test: on any bytes and any
// attribute name the scanner and the oracle agree. The seed corpus is in
// testdata/fuzz/FuzzExtractAttrs.
func FuzzExtractAttrs(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte, attr string) {
		checkAgainstRef(t, doc, []string{"UserID", attr, "a.b", "a.b.c", "CreationTime"})
	})
}

// refScanString is scanString's byte loop as it was before the word skip:
// the oracle of TestScanStringWords.
func refScanString(doc []byte, i int) (end int, flags uint8) {
	for i++; i < len(doc); i++ {
		c := doc[i]
		if strOrdinary[c] {
			continue
		}
		switch {
		case c == '"':
			return i + 1, flags
		case c == '\\':
			flags |= strEscape
			i++
			if i >= len(doc) {
				return -1, 0
			}
			switch doc[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(doc) || !isHex(doc[i+1]) || !isHex(doc[i+2]) || !isHex(doc[i+3]) || !isHex(doc[i+4]) {
					return -1, 0
				}
				i += 4
			default:
				return -1, 0
			}
		case c < 0x20:
			return -1, 0
		default:
			flags |= strHigh
		}
	}
	return -1, 0
}

// TestScanStringWords holds the eight-byte skip of scanString to the byte
// loop: every special byte or escape at every offset 0-15 of strings of
// 0-24 ordinary bytes, unterminated, closed, or closed and followed by
// more of the document. The verdict, end index and flags must agree.
func TestScanStringWords(t *testing.T) {
	specials := []string{
		"", `"`, `\`, `\\`, `\"`, `\n`, `\/`, `\u00e9`, `\u00`, `\x`,
		"\x00", "\x1f", " ", "~", "\x7f", "\x80", "\xc3\xa9", "\xff",
	}
	const fill = "abcdefghijklmnopqrstuvwxyz"
	for n := 0; n <= 24; n++ {
		for off := 0; off <= 15 && off <= n; off++ {
			for _, sp := range specials {
				for _, tail := range []string{"", `"`, `","k":"value"}`} {
					doc := []byte(`"` + fill[:off] + sp + fill[off:n] + tail)
					end, flags := scanString(doc, 0)
					wantEnd, wantFlags := refScanString(doc, 0)
					if end != wantEnd || flags != wantFlags {
						t.Fatalf("scanString(%q) = %d, %b; byte loop: %d, %b", doc, end, flags, wantEnd, wantFlags)
					}
				}
			}
		}
	}
}

var benchTweet = tweetDoc("u0001234", 1234567, "lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor")

// TestExtractAllocations gates what the scanner is for: a document whose
// indexed values need no unquoting is scanned without allocating.
func TestExtractAllocations(t *testing.T) {
	attrs := []string{"UserID", "CreationTime"}
	dst := make([]sstable.AttrValue, 0, len(attrs))
	for name, fn := range map[string]func(){
		"scanAttrs": func() {
			var buf [4]attrSlot
			slots := attrSlots(&buf, len(attrs))
			scanAttrs(benchTweet, attrs, slots)
			if string(slots[0].val) != "u0001234" || string(slots[1].val) != "0001234567" {
				t.Fatalf("scanAttrs = %q, %q", slots[0].val, slots[1].val)
			}
		},
		"attrInRange": func() {
			if !attrInRange(benchTweet, "CreationTime", "0001234000", "0001235000") {
				t.Fatal("attrInRange = false")
			}
		},
		"appendAttrValues": func() {
			if dst = appendAttrValues(dst[:0], benchTweet, attrs); len(dst) != 2 {
				t.Fatalf("appendAttrValues = %v", dst)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per document, want 0", name, allocs)
		}
	}
}

// TestNullAttributeNotIndexed: a null attribute is no string, so the
// record is stored but appears under no value of that attribute — not
// even the empty string, where the map-based extraction put it.
func TestNullAttributeNotIndexed(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			doc := []byte(`{"UserID":null,"CreationTime":"0000000001","Text":"null user"}`)
			if err := db.Put("t-null", doc); err != nil {
				t.Fatal(err)
			}
			if err := db.Put("t-empty", tweetDoc("", 2, "empty user")); err != nil {
				t.Fatal(err)
			}
			check := func(where string) {
				t.Helper()
				got, err := db.Lookup("UserID", "", 0)
				if err != nil || !sameKeys(keysOf(got), []string{"t-empty"}) {
					t.Fatalf("%s: Lookup(UserID, \"\") = %v, %v; want only t-empty", where, keysOf(got), err)
				}
				got, err = db.RangeLookup("UserID", "", "\xff", 0)
				if err != nil || !sameKeys(keysOf(got), []string{"t-empty"}) {
					t.Fatalf("%s: RangeLookup(UserID, everything) = %v, %v; want only t-empty", where, keysOf(got), err)
				}
				got, err = db.Lookup("CreationTime", "0000000001", 0)
				if err != nil || !sameKeys(keysOf(got), []string{"t-null"}) {
					t.Fatalf("%s: Lookup(CreationTime) = %v, %v; want t-null", where, keysOf(got), err)
				}
				if v, ok, err := db.Get("t-null"); err != nil || !ok || string(v) != string(doc) {
					t.Fatalf("%s: Get(t-null) = %q, %v, %v", where, v, ok, err)
				}
			}
			check("memtable")
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check("flushed")
		})
	}
}

// BenchmarkExtractAttrs prices one document's extraction: the scanner
// against the map-building oracle it replaced.
func BenchmarkExtractAttrs(b *testing.B) {
	attrs := []string{"UserID", "CreationTime"}
	b.Run("scan", func(b *testing.B) {
		dst := make([]sstable.AttrValue, 0, len(attrs))
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTweet)))
		for i := 0; i < b.N; i++ {
			if dst = appendAttrValues(dst[:0], benchTweet, attrs); len(dst) != 2 {
				b.Fatal(dst)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTweet)))
		for i := 0; i < b.N; i++ {
			if got := refExtractAttrs(benchTweet, attrs); len(got) != 2 {
				b.Fatal(got)
			}
		}
	})
}

// BenchmarkEmbeddedLookup measures Embedded LOOKUP and RANGELOOKUP top-10
// over flushed, compressed tables without a block cache — the rh-embedded
// shape, where every candidate block is inflated and every record in it
// tested.
func BenchmarkEmbeddedLookup(b *testing.B) {
	opts := smallOptions(IndexEmbedded)
	opts.MemTableBytes = 256 << 10
	opts.BlockSize = 4 << 10
	opts.BaseLevelBytes = 1 << 20
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n, users = 20000, 500
	for i := 0; i < n; i++ {
		doc := tweetDoc(fmt.Sprintf("u%07d", i*7919%users), i, "embedded lookup benchmark tweet, padded to a plausible length")
		if err := db.Put(fmt.Sprintf("t%010d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Lookup("UserID", fmt.Sprintf("u%07d", i%users), 10)
			if err != nil || len(res) != 10 {
				b.Fatalf("got %d results, %v", len(res), err)
			}
		}
	})
	b.Run("rangelookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i * 37 % (n - 100)
			res, err := db.RangeLookup("CreationTime", fmt.Sprintf("%010d", lo), fmt.Sprintf("%010d", lo+99), 10)
			if err != nil || len(res) != 10 {
				b.Fatalf("got %d results, %v", len(res), err)
			}
		}
	})
}
