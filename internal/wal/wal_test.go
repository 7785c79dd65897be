package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "000001.log")
}

// replayPath replays the log at path.
func replayPath(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Replay(f, fn)
}

func TestAppendReplay(t *testing.T) {
	path := tempLog(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := Record{
			Seq:   uint64(i + 1),
			Kind:  byte(i % 2),
			Key:   []byte(fmt.Sprintf("key-%03d", i)),
			Value: []byte(fmt.Sprintf("value-%03d", i)),
		}
		if r.Kind == 0 {
			r.Value = []byte{}
		}
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := replayPath(path, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || string(g.Key) != string(w.Key) || string(g.Value) != string(w.Value) {
			t.Fatalf("record %d: got %+v want %+v", i, g, w)
		}
	}
}

func TestReplayEmptyFile(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	w.Close()
	n := 0
	if err := replayPath(path, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d from empty log", n)
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	for i := 0; i < 10; i++ {
		w.Append(Record{Seq: uint64(i + 1), Kind: 1, Key: []byte("k"), Value: []byte("v")})
	}
	w.Close()
	// Truncate mid-record to simulate a crash during the last write.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := replayPath(path, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", n)
	}
}

func TestCorruptTailStopsReplay(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	for i := 0; i < 5; i++ {
		w.Append(Record{Seq: uint64(i + 1), Kind: 1, Key: []byte("key"), Value: []byte("abcdef")})
	}
	w.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xff // corrupt last record's payload
	os.WriteFile(path, data, 0o644)
	n := 0
	if err := replayPath(path, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records with corrupt tail, want 4", n)
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	w.Append(Record{Seq: 1, Kind: 1, Key: []byte{}, Value: []byte{}})
	w.Close()
	var got []Record
	replayPath(path, func(r Record) error { got = append(got, r); return nil })
	if len(got) != 1 || len(got[0].Key) != 0 || len(got[0].Value) != 0 {
		t.Fatalf("empty k/v roundtrip failed: %+v", got)
	}
}

func TestLargeRecord(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	w.Append(Record{Seq: 1, Kind: 1, Key: []byte("big"), Value: big})
	w.Close()
	var got Record
	replayPath(path, func(r Record) error { got = r; return nil })
	if len(got.Value) != len(big) {
		t.Fatalf("large record truncated: %d", len(got.Value))
	}
}

func TestReplayCallbackError(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path)
	w.Append(Record{Seq: 1, Kind: 1, Key: []byte("k")})
	w.Close()
	wantErr := fmt.Errorf("boom")
	if err := replayPath(path, func(Record) error { return wantErr }); err != wantErr {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	w, err := Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := Record{Seq: 1, Kind: 1, Key: []byte("tweet-0123456789"), Value: make([]byte, 550)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i)
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
