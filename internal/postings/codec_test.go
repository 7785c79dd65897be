package postings

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleList() List {
	return List{
		{Key: "t9", Seq: 90},
		{Key: "t7", Seq: 71, Del: true},
		{Key: "t3", Seq: 30},
		{Key: "", Seq: 12}, // empty keys must round-trip
		{Key: "t1", Seq: 1},
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, l := range []List{nil, {}, sampleList()} {
		enc := AppendList(nil, l)
		if len(enc) == 0 || enc[0] != MagicV2 {
			t.Fatalf("v2 encoding missing magic: %x", enc)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(l) {
			t.Fatalf("round trip %d entries, want %d", len(got), len(l))
		}
		for i := range l {
			if got[i] != l[i] {
				t.Fatalf("entry %d = %+v want %+v", i, got[i], l[i])
			}
		}
	}
}

func TestV2RoundTripUnsortedAndHugeSeqs(t *testing.T) {
	// Wrap-around delta encoding must round-trip any seq sequence, not
	// just descending ones.
	l := List{{Key: "a", Seq: 3}, {Key: "b", Seq: 1 << 63}, {Key: "c", Seq: 0}, {Key: "d", Seq: ^uint64(0)}}
	got, err := Decode(AppendList(nil, l))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestEncodeFormat(t *testing.T) {
	l := sampleList()
	v1 := refEncodeV1(l)
	if v1[0] != '[' {
		t.Fatalf("v1 encoding not JSON: %q", v1)
	}
	v2 := AppendList(nil, l)
	if v2[0] != MagicV2 {
		t.Fatalf("v2 encoding has no magic: %x", v2)
	}
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
	for _, enc := range [][]byte{v1, v2} {
		got, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("decode mismatch: %+v", got)
		}
	}
}

func TestCursorEarlyStopConsumesPrefixOnly(t *testing.T) {
	l := make(List, 100)
	for i := range l {
		l[i] = Entry{Key: "tweet-with-a-long-key-0000", Seq: uint64(1000 - i)}
	}
	enc := AppendList(nil, l)
	var c Cursor
	if err := c.Reset(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && c.Next(); i++ {
	}
	if c.EntriesDecoded() != 5 {
		t.Fatalf("EntriesDecoded = %d want 5", c.EntriesDecoded())
	}
	if c.BytesDecoded() >= int64(len(enc))/2 {
		t.Fatalf("early stop consumed %d of %d bytes", c.BytesDecoded(), len(enc))
	}
}

func TestCursorV1Fallback(t *testing.T) {
	l := sampleList()
	var c Cursor
	if err := c.Reset(refEncodeV1(l)); err != nil {
		t.Fatal(err)
	}
	// A v1 list is charged like the v2 list it is re-encoded as: per
	// entry consumed, not all at Reset.
	if c.EntriesDecoded() != 0 || c.BytesDecoded() != 1 {
		t.Fatalf("v1 counters at Reset = %d entries, %d bytes", c.EntriesDecoded(), c.BytesDecoded())
	}
	var got List
	for c.Next() {
		got = append(got, Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
	}
	if c.Err() != nil || !reflect.DeepEqual(got, l) {
		t.Fatalf("v1 cursor = %+v, %v", got, c.Err())
	}
	if v2 := AppendList(nil, l); c.EntriesDecoded() != int64(len(l)) || c.BytesDecoded() != int64(len(v2)) {
		t.Fatalf("v1 counters = %d entries, %d bytes; want %d, %d", c.EntriesDecoded(), c.BytesDecoded(), len(l), len(v2))
	}
	// The same cursor must be reusable for v2 input afterwards.
	if err := c.Reset(AppendList(nil, l)); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for c.Next() {
		got = append(got, Entry{Key: string(c.Key()), Seq: c.Seq(), Del: c.Del()})
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("v2 cursor after reuse = %+v", got)
	}
}

func TestCursorCorruptInputs(t *testing.T) {
	valid := AppendList(nil, sampleList())
	for _, data := range [][]byte{
		{MagicV2, 0x80},       // truncated uvarint
		{MagicV2, 0x04},       // key length 2 past the buffer
		{MagicV2, 0x02, 0x80}, // truncated seq varint
		{MagicV2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, // huge key length
		valid[:len(valid)-1], // truncated key bytes
	} {
		var c Cursor
		if err := c.Reset(data); err != nil {
			t.Fatalf("Reset(%x) should defer corruption to Next: %v", data, err)
		}
		for c.Next() {
		}
		if c.Err() == nil {
			t.Fatalf("corrupt input %x iterated cleanly", data)
		}
		if _, err := Decode(data); err == nil {
			t.Fatalf("Decode accepted corrupt %x", data)
		}
	}
}

// TestAppendSingleMatchesSingle: the v2 one-entry fragment a Lazy PUT
// writes decodes to the seed's one-entry v1 list.
func TestAppendSingleMatchesSingle(t *testing.T) {
	got, err := Decode(AppendSingle(nil, "t42", 7, true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(refEncodeV1(List{{Key: "t42", Seq: 7, Del: true}}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendSingle = %+v want %+v", got, want)
	}
}

func TestAppendAddEquivalence(t *testing.T) {
	base := sampleList()
	for _, in := range encoders {
		out, decoded, err := AppendAdd(nil, in.encode(base), "t3", 99, false)
		if err != nil {
			t.Fatal(err)
		}
		if decoded != int64(len(base)) {
			t.Fatalf("decoded = %d want %d", decoded, len(base))
		}
		if out[0] != MagicV2 {
			t.Fatalf("in=%s: AppendAdd wrote %q, not v2", in.name, out)
		}
		got, err := Decode(out)
		if err != nil {
			t.Fatal(err)
		}
		want := refAdd(base, "t3", 99, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("in=%s: AppendAdd = %+v want %+v", in.name, got, want)
		}
	}
	// Missing list: prepend into nothing.
	out, _, err := AppendAdd(nil, nil, "t1", 5, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Decode(out)
	if len(got) != 1 || got[0] != (Entry{Key: "t1", Seq: 5, Del: true}) {
		t.Fatalf("AppendAdd(nil) = %+v", got)
	}
}

func TestAppendSingleAllocationFree(t *testing.T) {
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendSingle(dst[:0], "tweet-0001234", 123456, false)
	})
	if allocs != 0 {
		t.Fatalf("AppendSingle allocated %.1f times per call", allocs)
	}
}

func TestCursorNextAllocationFree(t *testing.T) {
	l := make(List, 64)
	for i := range l {
		l[i] = Entry{Key: "tweet-0001234", Seq: uint64(5000 - i)}
	}
	enc := AppendList(nil, l)
	var c Cursor
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Reset(enc); err != nil {
			t.Fatal(err)
		}
		n := 0
		for c.Next() {
			n += len(c.Key())
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("v2 cursor walk allocated %.1f times per list", allocs)
	}
}

func TestAppendAddAllocationFree(t *testing.T) {
	existing := AppendList(nil, sampleList())
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := AppendAdd(dst[:0], existing, "t3", 99, false)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("AppendAdd allocated %.1f times per call", allocs)
	}
}

func TestV1EncodingUnchangedBySniffing(t *testing.T) {
	// Byte-for-byte: the reference v1 writer must produce exactly what the
	// seed wrote, so the v1 inputs of these tests are the lists seed
	// databases hold.
	l := List{{Key: "t4", Seq: 4}, {Key: "t1", Seq: 1, Del: true}}
	want := `[{"k":"t4","s":4},{"k":"t1","s":1,"d":true}]`
	if got := string(refEncodeV1(l)); got != want {
		t.Fatalf("v1 bytes changed: %s", got)
	}
	if got := refEncodeV1(List{{Key: "t9", Seq: 9}}); !bytes.Equal(got, []byte(`[{"k":"t9","s":9}]`)) {
		t.Fatalf("one-entry v1 bytes changed: %s", got)
	}
}

// TestV1WriterOnlyInTests keeps the v1 writer out of the package: no
// non-test file may encode JSON. Decoding v1 lists stays.
func TestV1WriterOnlyInTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "json" &&
				(strings.HasPrefix(sel.Sel.Name, "Marshal") || sel.Sel.Name == "NewEncoder") {
				t.Errorf("%s: json.%s in non-test code", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
