package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"leveldbpp/internal/vfs/vfstest"
)

// createTorn creates the log at path on a vfstest.FS, for the test to
// Tear.
func createTorn(t *testing.T, path string) (*Writer, *vfstest.FS) {
	t.Helper()
	fs := vfstest.New()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return NewWriter(f), fs
}

// TestFlushMakesRecordsVisible verifies the buffering contract: appended
// records are not in the file until Flush, and are after — without Close.
func TestFlushMakesRecordsVisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := w.Append(Record{Seq: 1, Kind: 1, Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("before flush: size=%d err=%v, want 0 (buffered)", fi.Size(), err)
	}

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := replayPath(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Key) != "k" {
		t.Fatalf("after flush: replayed %v, want 1 record", got)
	}
}

// TestFailAfterTearsFrame tears a write mid-frame and checks that replay
// recovers every record before the torn one and none after.
func TestFailAfterTearsFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, fs := createTorn(t, path)

	// Two complete records, flushed durable.
	for i := uint64(1); i <= 2; i++ {
		if err := w.Append(Record{Seq: i, Kind: 1, Key: []byte{byte(i)}, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Allow 5 more bytes through, then crash: the third record tears.
	fs.Tear(path, 5)
	if err := w.Append(Record{Seq: 3, Kind: 1, Key: []byte("torn"), Value: []byte("lost")}); err != nil {
		t.Fatal(err) // append only buffers; the error surfaces at flush
	}
	if err := w.Flush(); !errors.Is(err, vfstest.ErrTorn) {
		t.Fatalf("flush err = %v, want ErrTorn", err)
	}
	// The error is sticky: every later append/sync keeps failing, so no
	// write after the crash can ever be acknowledged.
	if err := w.Append(Record{Seq: 4, Kind: 1, Key: []byte("x")}); !errors.Is(err, vfstest.ErrTorn) {
		t.Fatalf("append after crash = %v, want ErrTorn", err)
	}
	if err := w.Sync(); !errors.Is(err, vfstest.ErrTorn) {
		t.Fatalf("sync after crash = %v, want ErrTorn", err)
	}

	var got []Record
	if err := replayPath(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("replayed %d records %v, want exactly the 2 pre-crash ones", len(got), got)
	}
}

// TestFailAfterTearsBatch proves the all-or-nothing property for batch
// frames: a batch torn mid-frame replays zero of its records.
func TestFailAfterTearsBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, fs := createTorn(t, path)

	if err := w.Append(Record{Seq: 1, Kind: 1, Key: []byte("pre"), Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	batch := make([]Record, 8)
	for i := range batch {
		batch[i] = Record{Seq: uint64(2 + i), Kind: 1, Key: []byte{byte(i)}, Value: []byte("payload")}
	}
	fs.Tear(path, 40) // tears partway through the batch frame
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); !errors.Is(err, vfstest.ErrTorn) {
		t.Fatalf("flush err = %v, want ErrTorn", err)
	}

	var got []Record
	if err := replayPath(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Key) != "pre" {
		t.Fatalf("replayed %v, want only the pre-batch record (torn batch = nothing)", got)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ok   bool
		want SyncMode
	}{
		{"off", true, SyncOff},
		{"always", true, SyncGrouped},
		{"grouped", true, SyncGrouped},
		{"", false, SyncOff},
		{"ALWAYS", false, SyncOff},
	} {
		got, err := ParseSyncMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
