package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// buildFormatTable opens a 500-entry table at the given restart interval:
// Builder's at restartInterval, the reference writer's v1 at interval <= 0.
func buildFormatTable(t *testing.T, interval int, stats *metrics.IOStats) ([]byte, *Table) {
	t.Helper()
	entries := make([]tableEntry, 500)
	for i := range entries {
		ik := ikey.Make([]byte(fmt.Sprintf("user%06d", i)), uint64(i+1), ikey.KindSet)
		entries[i] = tableEntry{ik: ik, val: []byte(fmt.Sprintf("payload-%06d", i))}
	}
	data := formatTableBytes(t, entries, Options{BlockSize: 512, BitsPerKey: 10, Compression: NoCompression}, interval)
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), stats)
	if err != nil {
		t.Fatal(err)
	}
	return data, tbl
}

// TestV1FooterUnchanged pins the seed's wire format: a v1 table ends in
// the 24-byte v1 footer — old readers depend on finding tableMagic at
// exactly size-8 — and the reader opens it as v1.
func TestV1FooterUnchanged(t *testing.T) {
	data, tbl := buildFormatTable(t, 0, nil)
	if got := binary.BigEndian.Uint64(data[len(data)-8:]); got != tableMagic {
		t.Fatalf("v1 magic = %#x, want %#x", got, uint64(tableMagic))
	}
	if tbl.FormatVersion() != formatV1 {
		t.Fatalf("FormatVersion = %d, want %d", tbl.FormatVersion(), formatV1)
	}
	// v1 blocks must carry no restart trailer: the iterator sees zero
	// restart points and GETs fall back to the linear scan.
	var it BlockIter
	raw, err := tbl.readBlock(0, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.initBlockIter(&it, raw); err != nil {
		t.Fatal(err)
	}
	if it.numRestarts != 0 {
		t.Fatalf("v1 block has %d restarts", it.numRestarts)
	}
}

func TestV2FooterAndMagic(t *testing.T) {
	data, tbl := buildFormatTable(t, restartInterval, nil)
	if got := binary.BigEndian.Uint64(data[len(data)-8:]); got != tableMagic2 {
		t.Fatalf("v2 magic = %#x, want %#x", got, uint64(tableMagic2))
	}
	if v := data[len(data)-9]; v != formatV2 {
		t.Fatalf("version byte = %d, want %d", v, formatV2)
	}
	if tbl.FormatVersion() != formatV2 {
		t.Fatalf("FormatVersion = %d, want %d", tbl.FormatVersion(), formatV2)
	}
}

// TestFormatsReadIdentically verifies both formats expose exactly the same
// logical contents through Get and through full iteration, and that the v1
// path never charges BlockSeeks while the v2 path does.
func TestFormatsReadIdentically(t *testing.T) {
	var s1, s2 metrics.IOStats
	_, t1 := buildFormatTable(t, 0, &s1)
	_, t2 := buildFormatTable(t, restartInterval, &s2)

	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("user%06d", i))
		k1, v1, ok1, err1 := t1.GetWith(&GetScratch{}, key)
		k2, v2, ok2, err2 := t2.GetWith(&GetScratch{}, key)
		if err1 != nil || err2 != nil {
			t.Fatalf("get %d: %v / %v", i, err1, err2)
		}
		if !ok1 || !ok2 {
			t.Fatalf("get %d: ok %v / %v", i, ok1, ok2)
		}
		if !bytes.Equal(k1, k2) || !bytes.Equal(v1, v2) {
			t.Fatalf("get %d: contents differ between formats", i)
		}
	}
	if _, _, ok, _ := t1.GetWith(&GetScratch{}, []byte("zzz-missing")); ok {
		t.Fatal("v1 found a missing key")
	}
	if _, _, ok, _ := t2.GetWith(&GetScratch{}, []byte("zzz-missing")); ok {
		t.Fatal("v2 found a missing key")
	}

	i1, i2 := t1.NewIterator(true), t2.NewIterator(true)
	n := 0
	for i1.Next() {
		if !i2.Next() {
			t.Fatalf("v2 iterator ended early at %d", n)
		}
		if !bytes.Equal(i1.Key(), i2.Key()) || !bytes.Equal(i1.Value(), i2.Value()) {
			t.Fatalf("iteration diverges at entry %d", n)
		}
		n++
	}
	if i2.Next() {
		t.Fatal("v2 iterator has extra entries")
	}
	if err := i1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := i2.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("iterated %d entries, want 500", n)
	}

	if got := s1.Snapshot().BlockSeeks; got != 0 {
		t.Fatalf("v1 charged %d BlockSeeks", got)
	}
	if got := s2.Snapshot().BlockSeeks; got == 0 {
		t.Fatal("v2 charged no BlockSeeks")
	}
}

// TestSeekGELoadErrorSurfaces pins the satellite fix: a SeekGE that lands
// on a block which fails to load must report the error, not silently step
// to the next block.
func TestSeekGELoadErrorSurfaces(t *testing.T) {
	data, tbl := buildFormatTable(t, restartInterval, nil)
	// Corrupt the first data block's CRC so loading it fails.
	corrupt := append([]byte(nil), data...)
	corrupt[0] ^= 0xff
	bad, err := OpenTable(bytes.NewReader(corrupt), int64(len(corrupt)), nil)
	if err != nil {
		t.Fatal(err)
	}
	it := bad.NewIterator(true)
	if it.SeekGE(ikey.SeekKey([]byte("user000000"))) {
		t.Fatal("SeekGE succeeded on a corrupt block")
	}
	if it.Err() == nil {
		t.Fatal("SeekGE swallowed the block-load error")
	}
	// The intact table seeks fine past the end: no entry, no error.
	it2 := tbl.NewIterator(true)
	if it2.SeekGE(ikey.SeekKey([]byte("zzzz"))) {
		t.Fatal("SeekGE past the last key returned an entry")
	}
	if err := it2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestGetShortKeyInV1Block: a CRC-valid seed-format block holding an
// entry whose internal key is shorter than the 8-byte trailer makes
// GetWith return an error, as a v2 block's does, not panic.
func TestGetShortKeyInV1Block(t *testing.T) {
	entries := make([]tableEntry, 3)
	for i := range entries {
		ik := ikey.Make([]byte(fmt.Sprintf("user%06d", i)), uint64(i+1), ikey.KindSet)
		entries[i] = tableEntry{ik: ik, val: []byte(fmt.Sprintf("payload-%06d", i))}
	}
	data := refTableBytes(entries, Options{Compression: NoCompression}, 0)
	// The one data block starts the file: entries, then the codec byte
	// and the CRC. Give entry 1 a 3-byte key (shared 0, unshared 3) and
	// its value the bytes the key no longer takes; the headers keep their
	// one-byte varints.
	entryEnd := func(off int) int {
		var h [3]uint64
		for i := range h {
			v, n := binary.Uvarint(data[off:])
			h[i], off = v, off+n
		}
		return off + int(h[1]+h[2])
	}
	e1 := entryEnd(0)
	end := entryEnd(entryEnd(e1))
	if data[e1] != 9 || data[e1+1] != 9 {
		t.Fatalf("entry 1 header shared %d, unshared %d; want 9, 9", data[e1], data[e1+1])
	}
	data[e1], data[e1+1], data[e1+2] = 0, 3, data[e1+2]+6
	binary.BigEndian.PutUint32(data[end+1:], crc32.Checksum(data[:end+1], crcTable))
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := tbl.GetWith(&GetScratch{}, []byte("user000002"))
	if err == nil || !strings.Contains(err.Error(), "entry key too short (3 bytes)") {
		t.Fatalf("GetWith = ok %v, err %v; want the short key reported", ok, err)
	}
}

// TestV1WriterOnlyInTests keeps the v1 table writer out of the package:
// outside its declaration, non-test code may name tableMagic only as a
// case the footer sniff matches, never as a value it writes.
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
		allowed := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, id := range n.Names {
					allowed[id] = true
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if id, ok := e.(*ast.Ident); ok {
						allowed[id] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "tableMagic" && !allowed[id] {
				t.Errorf("%s: tableMagic used outside the footer sniff", fset.Position(id.Pos()))
			}
			return true
		})
	}
}
