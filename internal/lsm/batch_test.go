package lsm

import (
	"fmt"
	"os"
	"testing"
)

func TestBatchBasic(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	var b Batch
	b.PutNoCopy([]byte("a"), []byte("1"))
	b.PutNoCopy([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	b.PutNoCopy([]byte("c"), []byte("3"))
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustGet(t, db, "a"); ok {
		t.Fatal("later delete in batch must shadow earlier put")
	}
	if v, _ := mustGet(t, db, "b"); v != "2" {
		t.Fatal("batch put lost")
	}
	if v, _ := mustGet(t, db, "c"); v != "3" {
		t.Fatal("batch put lost")
	}
	if err := db.ApplyAt(&Batch{}, 0, nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
}

func TestBatchSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.MemTableBytes = 1 << 30 // keep everything in the WAL
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 100; i++ {
		b.PutNoCopy([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		if v, ok := mustGet(t, db2, fmt.Sprintf("k%03d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d = %q %v after reopen", i, v, ok)
		}
	}
}

func TestBatchCrashAtomicity(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.MemTableBytes = 1 << 30
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A committed single put, then a large batch.
	mustPut(t, db, "before", "yes")
	var b Batch
	for i := 0; i < 50; i++ {
		b.PutNoCopy([]byte(fmt.Sprintf("batch%02d", i)), []byte("v"))
	}
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	walFile := activeWAL(db)
	db.Close()

	// Corrupt the tail of the WAL inside the batch frame: the whole batch
	// must vanish on replay, not a prefix of it.
	fi, _ := os.Stat(walFile)
	if err := os.Truncate(walFile, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := mustGet(t, db2, "before"); !ok {
		t.Fatal("committed record before the batch lost")
	}
	for i := 0; i < 50; i++ {
		if _, ok := mustGet(t, db2, fmt.Sprintf("batch%02d", i)); ok {
			t.Fatalf("partial batch visible after crash: batch%02d", i)
		}
	}
}

// TestBatchVersionsCoalesceAtFlush puts several versions of a key in one
// batch: each is its own MemTable record, and the flush coalesces them
// with the version committed before the batch.
func TestBatchVersionsCoalesceAtFlush(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	db, _ := openTestDB(t, opts)
	mustPut(t, db, "list", "a") // committed before the batch
	var b Batch
	b.PutNoCopy([]byte("list"), []byte("b"))
	b.PutNoCopy([]byte("list"), []byte("c"))
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, db, "list"); v != "c" {
		t.Fatalf("MemTable value = %q, want the newest version c", v)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, db, "list"); v != "a|b|c" {
		t.Fatalf("flushed value = %q, want a|b|c", v)
	}
}

// TestBatchVersionsSurviveReplay logs several versions of a key and
// reopens before any flush: the WAL holds each version as written, so
// replay rebuilds every one of them and the flush after it coalesces
// them.
func TestBatchVersionsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.MemTableBytes = 1 << 30
	opts.NewMerger = newConcatMerger
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "list", "w")
	var b Batch
	b.PutNoCopy([]byte("list"), []byte("x"))
	b.PutNoCopy([]byte("list"), []byte("y"))
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, _ := mustGet(t, db2, "list"); v != "y" {
		t.Fatalf("after replay = %q, want the newest version y", v)
	}
	if n := db2.mem.list.Len(); n != 3 {
		t.Fatalf("replayed MemTable holds %d records, want 3", n)
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, db2, "list"); v != "w|x|y" {
		t.Fatalf("flushed after replay = %q, want w|x|y", v)
	}
}

func TestBatchTriggersFlush(t *testing.T) {
	db, _ := openTestDB(t, smallOpts()) // 8 KiB memtable
	var b Batch
	for i := 0; i < 400; i++ {
		b.PutNoCopy([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%064d", i)))
	}
	if err := db.ApplyAt(&b, 0, nil); err != nil {
		t.Fatal(err)
	}
	installPending(t, db) // the batch's rotation handed its flush off
	if levels := levelsOf(db); len(levels[0])+len(levels[1]) == 0 {
		t.Fatal("large batch did not flush")
	}
	for i := 0; i < 400; i++ {
		if _, ok := mustGet(t, db, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("key%04d lost in flush", i)
		}
	}
}

// TestCallerBuffersReusable overwrites the key and value buffers of every
// Put and PutNoCopy batch as soon as the write returns: the MemTable holds
// copies, so Get and Scan must answer from them, before and after a Flush.
func TestCallerBuffersReusable(t *testing.T) {
	db, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var key, value []byte
	want := map[string]string{}
	for i := 0; i < 60; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d-of-the-record", i)
		key, value = append(key[:0], k...), append(value[:0], v...)
		if i%2 == 0 {
			err = db.PutAt(key, value, 0)
		} else {
			var b Batch
			b.PutNoCopy(key, value)
			err = db.ApplyAt(&b, 0, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		copy(key, "key-999")
		copy(value, "clobbered")
		want[k] = v
	}
	check := func(when string) {
		t.Helper()
		for k, v := range want {
			got, ok, err := db.Get([]byte(k), nil)
			if err != nil || !ok || string(got) != v {
				t.Fatalf("%s: Get(%s) = %q, %v, %v; want %q", when, k, got, ok, err, v)
			}
		}
		checkContents(t, db, want, when)
	}
	db.mu.RLock()
	inMem := !db.mem.empty()
	db.mu.RUnlock()
	if !inMem {
		t.Fatal("the records left the MemTable before the first check")
	}
	check("in the MemTable")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after Flush")
}
