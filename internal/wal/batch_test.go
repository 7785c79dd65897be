package wal

import (
	"fmt"
	"os"
	"testing"
)

func TestAppendBatchReplay(t *testing.T) {
	path := tempLog(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Record
	for i := 0; i < 25; i++ {
		batch = append(batch, Record{
			Seq:   100 + uint64(i),
			Kind:  byte(i % 2),
			Key:   []byte(fmt.Sprintf("key-%02d", i)),
			Value: []byte(fmt.Sprintf("value-%02d", i)),
		})
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Interleave a single record after the batch.
	if err := w.Append(Record{Seq: 200, Kind: 1, Key: []byte("solo")}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var got []Record
	if err := replayPath(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 26 {
		t.Fatalf("replayed %d records, want 26", len(got))
	}
	for i := 0; i < 25; i++ {
		g := got[i]
		if g.Seq != 100+uint64(i) || g.Kind != byte(i%2) ||
			string(g.Key) != fmt.Sprintf("key-%02d", i) ||
			string(g.Value) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("record %d mismatch: %+v", i, g)
		}
	}
	if got[25].Seq != 200 || string(got[25].Key) != "solo" {
		t.Fatalf("trailing single record mismatch: %+v", got[25])
	}
}

func TestAppendBatchEmptyAndSingle(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	if err := w.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	// Single-record batches take the plain-frame path.
	if err := w.AppendBatch([]Record{{Seq: 1, Kind: 1, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	n := 0
	replayPath(path, func(Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
}

func TestBatchAtomicityOnCorruptTail(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	w.Append(Record{Seq: 1, Kind: 1, Key: []byte("committed")})
	var batch []Record
	for i := 0; i < 10; i++ {
		batch = append(batch, Record{Seq: 10 + uint64(i), Kind: 1, Key: []byte(fmt.Sprintf("b%d", i)), Value: []byte("v")})
	}
	w.AppendBatch(batch)
	w.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff // corrupt inside the batch frame
	os.WriteFile(path, data, 0o644)

	var got []string
	if err := replayPath(path, func(r Record) error { got = append(got, string(r.Key)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "committed" {
		t.Fatalf("batch not atomic under corruption: %v", got)
	}
}

func TestBatchWithEmptyKeysAndValues(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	batch := []Record{
		{Seq: 1, Kind: 1, Key: []byte{}, Value: []byte{}},
		{Seq: 2, Kind: 0, Key: []byte("k"), Value: nil},
		{Seq: 3, Kind: 1, Key: []byte("k2"), Value: []byte("v2")},
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got []Record
	replayPath(path, func(r Record) error { got = append(got, r); return nil })
	if len(got) != 3 {
		t.Fatalf("replayed %d", len(got))
	}
	if len(got[0].Key) != 0 || got[1].Kind != 0 || string(got[2].Value) != "v2" {
		t.Fatalf("batch contents mangled: %+v", got)
	}
}

func TestSyncDoesNotError(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	w.Append(Record{Seq: 1, Kind: 1, Key: []byte("k")})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
}
