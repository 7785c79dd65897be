package lsm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/vfs"
)

// smallOpts returns options scaled so tests exercise flushes and multiple
// compaction levels with tiny data volumes.
func smallOpts() *Options {
	return &Options{
		MemTableBytes:       8 << 10, // 8 KiB
		BlockSize:           1 << 10,
		BaseLevelBytes:      32 << 10,
		LevelMultiplier:     4,
		L0CompactionTrigger: 4,
		MaxLevels:           5,
	}
}

func openTestDB(t testing.TB, opts *Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

func mustPut(t testing.TB, db *DB, k, v string) {
	t.Helper()
	if err := db.PutAt([]byte(k), []byte(v), 0); err != nil {
		t.Fatal(err)
	}
}

// installPending installs db's pending handoff, waiting for its goroutine
// to finish, as the writer's next freeze would.
func installPending(t testing.TB, db *DB) {
	t.Helper()
	db.mu.Lock()
	err := db.installPendingLocked()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// activeWAL returns the path of the WAL segment db appends to.
func activeWAL(db *DB) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.memWALs[len(db.memWALs)-1]
}

// levelsOf returns db's levels, L0 newest first. Versions are installed by
// copy, so the slices stay unchanged after db.mu is released.
func levelsOf(db *DB) [][]*FileMeta {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.v.levels
}

// deepestNonEmpty returns the deepest level holding a table, or 0.
func deepestNonEmpty(db *DB) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.deepestNonEmptyLocked()
}

// deepestNonEmptyLocked is deepestNonEmpty with db.mu held.
func (db *DB) deepestNonEmptyLocked() int { return db.v.deepestNonEmpty() }

func mustGet(t testing.TB, db *DB, k string) (string, bool) {
	t.Helper()
	v, ok, err := db.Get([]byte(k), nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func TestPutGetDelete(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	mustPut(t, db, "k1", "v1")
	mustPut(t, db, "k2", "v2")
	if v, ok := mustGet(t, db, "k1"); !ok || v != "v1" {
		t.Fatalf("Get(k1) = %q %v", v, ok)
	}
	if _, ok := mustGet(t, db, "missing"); ok {
		t.Fatal("found missing key")
	}
	if err := db.DeleteAt([]byte("k1"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustGet(t, db, "k1"); ok {
		t.Fatal("deleted key still visible")
	}
	if v, ok := mustGet(t, db, "k2"); !ok || v != "v2" {
		t.Fatal("unrelated key lost")
	}
}

func TestOverwrite(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 10; i++ {
		mustPut(t, db, "k", fmt.Sprintf("v%d", i))
	}
	if v, ok := mustGet(t, db, "k"); !ok || v != "v9" {
		t.Fatalf("Get = %q %v, want v9", v, ok)
	}
}

func TestFlushAndReadFromSSTable(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 100; i++ {
		mustPut(t, db, fmt.Sprintf("key%04d", i), fmt.Sprintf("val%04d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if nL0 := len(levelsOf(db)[0]); nL0 == 0 {
		t.Fatal("no L0 files after flush")
	}
	for i := 0; i < 100; i++ {
		if v, ok := mustGet(t, db, fmt.Sprintf("key%04d", i)); !ok || v != fmt.Sprintf("val%04d", i) {
			t.Fatalf("key%04d = %q %v", i, v, ok)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	const n = 3000
	rng := rand.New(rand.NewSource(1))
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(1000))
		v := fmt.Sprintf("val%08d", i)
		want[k] = v
		mustPut(t, db, k, v)
	}
	// Compactions must have run.
	if deepest := deepestNonEmpty(db); deepest < 1 {
		t.Fatalf("expected multi-level tree, deepest=%d", deepest)
	}
	for k, v := range want {
		if got, ok := mustGet(t, db, k); !ok || got != v {
			t.Fatalf("after compaction %s = %q %v, want %q", k, got, ok, v)
		}
	}
}

func TestDeleteSurvivesCompaction(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), "v")
	}
	db.Flush()
	for i := 0; i < 500; i += 2 {
		if err := db.DeleteAt([]byte(fmt.Sprintf("key%05d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Push everything down through several flush/compaction rounds.
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("pad%06d", i), "padpadpadpadpadpad")
	}
	for i := 0; i < 500; i++ {
		_, ok := mustGet(t, db, fmt.Sprintf("key%05d", i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted key%05d visible", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("live key%05d lost", i)
		}
	}
}

func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 1500; i++ {
		k, v := fmt.Sprintf("key%05d", i%400), fmt.Sprintf("val%06d", i)
		want[k] = v
		mustPut(t, db, k, v)
	}
	db.DeleteAt([]byte("key00007"), 0)
	delete(want, "key00007")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, v := range want {
		if got, ok := mustGet(t, db2, k); !ok || got != v {
			t.Fatalf("after recovery %s = %q %v, want %q", k, got, ok, v)
		}
	}
	if _, ok := mustGet(t, db2, "key00007"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	// Sequence numbers must continue, not restart.
	pre := db2.LastSeq()
	mustPut(t, db2, "post", "recovery")
	if db2.LastSeq() != pre+1 || pre < 1500 {
		t.Fatalf("sequence restarted: pre=%d", pre)
	}
}

func TestRecoveryWithTornWAL(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.MemTableBytes = 1 << 30 // never flush: everything stays in WAL
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	walFile := activeWAL(db)
	db.Close()
	// Tear the last record.
	fi, _ := os.Stat(walFile)
	if err := os.Truncate(walFile, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 49; i++ {
		if _, ok := mustGet(t, db2, fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("k%03d lost", i)
		}
	}
	if _, ok := mustGet(t, db2, "k049"); ok {
		t.Fatal("torn record should be lost")
	}
}

// TestRecoveryWithZeroFilledWAL reopens a database whose WAL segment ends
// in zeros, as a power loss can leave it: a zeroed frame header passes the
// checksum (that of an empty payload is 0), and replay must stop there as
// at a torn tail and serve every record before it.
func TestRecoveryWithZeroFilledWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustPut(t, db, fmt.Sprintf("k%d", i), "v")
	}
	walFile := activeWAL(db)
	db.Close()
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 3; i++ {
		if _, ok := mustGet(t, db2, fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
}

// TestReplayTornFrameLengthBounded: a torn tail whose frame header claims
// far more bytes than are left ends replay there, and replay allocates
// about what the tail holds, not the 64 MiB the header claims.
func TestReplayTornFrameLengthBounded(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustPut(t, db, fmt.Sprintf("k%d", i), "v")
	}
	walFile := activeWAL(db)
	db.Close()
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 8+100)
	binary.BigEndian.PutUint32(tail[0:4], 0xdeadbeef)
	binary.BigEndian.PutUint32(tail[4:8], 64<<20)
	for i := range tail[8:] {
		tail[8+i] = byte(i*7 + 1)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db2, err := Open(dir, smallOpts())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 3; i++ {
		if _, ok := mustGet(t, db2, fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Open allocated %d bytes replaying a tail that claims 64 MiB", grew)
	} else {
		t.Logf("Open allocated %d bytes", grew)
	}
}

// TestFlushCoalescesVersions holds the flush to the compaction's value
// resolution: every Put is blind, so the MemTable keeps each version and
// a read sees the newest, and the flush hands the key's versions to the
// Merger once. A tombstone among them survives the flush under the
// merged value, as it survives a compaction into a non-base level.
func TestFlushCoalescesVersions(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	db, _ := openTestDB(t, opts)
	mustPut(t, db, "list", "a")
	mustPut(t, db, "list", "b")
	mustPut(t, db, "list", "c")
	mustPut(t, db, "gone", "x")
	if err := db.DeleteAt([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "gone", "y")
	mustPut(t, db, "gone", "z")
	if v, _ := mustGet(t, db, "list"); v != "c" {
		t.Fatalf("MemTable value = %q, want the newest version c", v)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, db, "list"); v != "a|b|c" {
		t.Fatalf("flushed value = %q, want a|b|c", v)
	}
	if v, _ := mustGet(t, db, "gone"); v != "y|z" {
		t.Fatalf("flushed value = %q, want y|z (the tombstone hides x)", v)
	}
	var kinds []ikey.Kind
	it := levelsOf(db)[0][0].tbl.NewIterator(false)
	for ok := it.SeekGE(ikey.SeekKey([]byte("gone"))); ok && string(ikey.UserKey(it.Key())) == "gone"; ok = it.Next() {
		kinds = append(kinds, ikey.KindOf(it.Key()))
	}
	if !reflect.DeepEqual(kinds, []ikey.Kind{ikey.KindSet, ikey.KindDelete}) {
		t.Fatalf("flushed table holds kinds %v for gone, want the merged value, then the tombstone", kinds)
	}
	// A fresh MemTable holds only what came after the flush; fragments of
	// different strata merge at compaction.
	mustPut(t, db, "list", "d")
	if v, _ := mustGet(t, db, "list"); v != "d" {
		t.Fatalf("fresh MemTable value = %q, want d", v)
	}
}

// concatMerger joins all observed values oldest→newest with '|'. It
// writes every result into one reused buffer, as a Merger may: a job's
// Merger is its own, and the engine copies each result before the next
// call.
type concatMerger struct{ buf []byte }

func newConcatMerger() Merger { return &concatMerger{} }

func (m *concatMerger) Merge(_ []byte, values [][]byte, _ bool) ([]byte, bool) {
	// values arrive newest→oldest; concatenate oldest first.
	out := m.buf[:0]
	for i := len(values) - 1; i >= 0; i-- {
		if len(out) > 0 {
			out = append(out, '|')
		}
		out = append(out, values[i]...)
	}
	m.buf = out
	return out, true
}

// elideMerger elides every key it merges.
type elideMerger struct{}

func newElideMerger() Merger { return elideMerger{} }

func (elideMerger) Merge([]byte, [][]byte, bool) ([]byte, bool) { return nil, false }

// TestOpenFailureClosesTables corrupts the table its MANIFEST lists last,
// so Open fails after opening every other one: repeated failed Opens must
// leave none of those tables' files open.
func TestOpenFailureClosesTables(t *testing.T) {
	const fdDir = "/proc/self/fd"
	if _, err := os.ReadDir(fdDir); err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	openFiles := func() int {
		entries, err := os.ReadDir(fdDir)
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	opts := smallOpts()
	opts.L0CompactionTrigger = 100
	db, dir := openTestDB(t, opts)
	for i := 0; i < 5; i++ {
		mustPut(t, db, fmt.Sprintf("key-%d", i), "v")
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m, _, err := loadManifest(vfs.Default, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Levels[0]) != 5 {
		t.Fatalf("manifest lists %d level-0 tables, want 5", len(m.Levels[0]))
	}
	last := m.Levels[0][4].Num
	if err := os.WriteFile(tablePath(dir, last), []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := openFiles()
	for i := 0; i < 20; i++ {
		if db, err := Open(dir, opts); err == nil {
			db.Close()
			t.Fatal("Open succeeded over a corrupt table")
		}
	}
	if after := openFiles(); after > before {
		t.Fatalf("20 failed Opens left %d more files open (%d → %d)", after-before, before, after)
	}
}

// TestFlushElidedMemTable flushes a MemTable whose every key the Merger
// elides: no table is written or installed, no file number is consumed,
// its flush_done event reports no output, and a full compaction over the
// tables flushed before it still runs.
func TestFlushElidedMemTable(t *testing.T) {
	log := metrics.NewEventLog(64)
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	opts.Events = log
	fs := useFaultFS(opts)
	db, dir := openTestDB(t, opts)
	mustPut(t, db, "kept", "one")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.opts.NewMerger = newElideMerger
	mustPut(t, db, "gone", "two")
	tables, nextNum := tableFiles(t, dir), db.nextFileNum.Load()
	onTableSync(fs, func() error {
		t.Error("the elided flush wrote a table")
		return nil
	})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	onTableSync(fs, nil)
	if n := len(levelsOf(db)[0]); n != 1 {
		t.Fatalf("%d level-0 tables, want the first flush's only", n)
	}
	if after := tableFiles(t, dir); !reflect.DeepEqual(after, tables) {
		t.Fatalf("tables after the elided flush = %v, want %v", after, tables)
	}
	if n := db.nextFileNum.Load(); n != nextNum {
		t.Fatalf("the elided flush consumed file numbers %d..%d", nextNum, n-1)
	}
	var done []metrics.Event
	for _, e := range log.Events() {
		if e.Type == metrics.EventFlushDone {
			done = append(done, e)
		}
	}
	if len(done) != 2 {
		t.Fatalf("%d flush_done events, want 2", len(done))
	}
	if kept := levelsOf(db)[0][0]; done[0].Outputs != 1 || done[0].Entries != 1 || done[0].Bytes != kept.Size {
		t.Fatalf("first flush_done %+v, want 1 output of 1 entry and %d bytes", done[0], kept.Size)
	}
	if e := done[1]; e.Outputs != 0 || e.Entries != 0 || e.Bytes != 0 {
		t.Fatalf("elided flush_done %+v, want no output, entries or bytes", e)
	}
	db.opts.NewMerger = newConcatMerger
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := mustGet(t, db, "kept"); !ok || v != "one" {
		t.Fatalf("kept = %q, %v", v, ok)
	}
	if _, ok := mustGet(t, db, "gone"); ok {
		t.Fatal("elided key still readable")
	}
}

func TestCompactionMerger(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	db, _ := openTestDB(t, opts)
	// Write fragments of the same key into separate L0 files.
	mustPut(t, db, "frag", "one")
	db.Flush()
	mustPut(t, db, "frag", "two")
	db.Flush()
	mustPut(t, db, "frag", "three")
	db.Flush()
	mustPut(t, db, "frag", "four")
	db.Flush() // 4 L0 files → triggers L0 compaction with merger
	if nL0 := len(levelsOf(db)[0]); nL0 != 0 {
		t.Fatalf("L0 not compacted: %d files", nL0)
	}
	if v, _ := mustGet(t, db, "frag"); v != "one|two|three|four" {
		t.Fatalf("merged = %q", v)
	}
}

func TestTombstoneDroppedAtBaseLevel(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	mustPut(t, db, "victim", "v")
	db.Flush()
	db.DeleteAt([]byte("victim"), 0)
	db.Flush()
	// Force compactions until L0 is empty; the tombstone should vanish
	// once it reaches the deepest level holding the key.
	for i := 0; i < 3; i++ {
		mustPut(t, db, fmt.Sprintf("fill%d", i), "x")
		db.Flush()
	}
	if _, ok := mustGet(t, db, "victim"); ok {
		t.Fatal("tombstone lost before shadowing its target")
	}
	// Scan all tables for any "victim" record.
	found := false
	for _, fms := range levelsOf(db) {
		for _, fm := range fms {
			it := fm.Table().NewIterator(false)
			for it.Next() {
				if string(ikey.UserKey(it.Key())) == "victim" {
					found = true
				}
			}
		}
	}
	if found {
		t.Fatal("victim record (or tombstone) still present after full compaction")
	}
}

func TestLevelShapeInvariants(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6000; i++ {
		mustPut(t, db, fmt.Sprintf("key%07d", rng.Intn(100000)), fmt.Sprintf("val%032d", i))
	}
	levels := levelsOf(db)
	for l := 1; l < len(levels); l++ {
		files := levels[l]
		for i := 1; i < len(files); i++ {
			// Sorted and disjoint.
			if bytes.Compare(ikey.UserKey(files[i-1].Largest), ikey.UserKey(files[i].Smallest)) >= 0 {
				t.Errorf("level %d files overlap: %q vs %q",
					l, ikey.UserKey(files[i-1].Largest), ikey.UserKey(files[i].Smallest))
			}
		}
	}
}

func TestRandomOpsMatchReferenceMap(t *testing.T) {
	opts := smallOpts()
	opts.Events = metrics.NewEventLog(0)
	db, _ := openTestDB(t, opts)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	// 8000 ops on random keys of key0000..key0799, then 6000 on rising
	// keys above them, which the drain moves down the tree as whole
	// tables; that phase also deletes keys it wrote a little earlier.
	for i := 0; i < 14000; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(800))
		if i >= 8000 {
			k = fmt.Sprintf("key%04d", i-7200)
			if i%10 == 0 {
				k = fmt.Sprintf("key%04d", i-7200-rng.Intn(50))
			}
		}
		switch rng.Intn(10) {
		case 0:
			if err := db.DeleteAt([]byte(k), 0); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		default:
			v := fmt.Sprintf("val%08d", i)
			mustPut(t, db, k, v)
			ref[k] = v
		}
		if i%1000 == 999 {
			// Spot-check a sample.
			keys := max(800, i-7200+1)
			for j := 0; j < 50; j++ {
				probe := fmt.Sprintf("key%04d", rng.Intn(keys))
				got, ok := mustGet(t, db, probe)
				wantV, wantOK := ref[probe]
				if ok != wantOK || (ok && got != wantV) {
					t.Fatalf("op %d: %s = %q/%v, want %q/%v", i, probe, got, ok, wantV, wantOK)
				}
			}
		}
	}
	for k, v := range ref {
		if got, ok := mustGet(t, db, k); !ok || got != v {
			t.Fatalf("final: %s = %q/%v want %q", k, got, ok, v)
		}
	}
	if n := opts.Events.(*metrics.EventLog).Counts()[metrics.EventTrivialMove]; n == 0 {
		t.Fatal("the rising-key phase moved no table")
	}
}

// shuffledKey returns the i-th key of a fixed permutation of
// fmt.Sprintf(format, 0..n-1): 7919 is prime, so i ↦ 7919·i mod n
// permutes 0..n-1 for every n it does not divide. Every flush of such an
// ingest spans the whole key range, so its tables overlap and compactions
// merge them rather than move them.
func shuffledKey(format string, i, n int) string {
	return fmt.Sprintf(format, i*7919%n)
}

func TestStatsCountIO(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 3000; i++ {
		mustPut(t, db, shuffledKey("key%06d", i, 3000), fmt.Sprintf("val%032d", i))
	}
	s := db.Stats().Snapshot()
	if s.BlockWrites == 0 {
		t.Error("no flush block writes recorded")
	}
	if s.CompactionWrites == 0 || s.CompactionReads == 0 {
		t.Errorf("no compaction I/O recorded: %+v", s)
	}
	pre := db.Stats().Snapshot()
	mustGet(t, db, shuffledKey("key%06d", 1, 3000)) // old key: must be on disk
	post := db.Stats().Snapshot().Sub(pre)
	if post.BlockReads == 0 {
		t.Error("disk Get did not count a block read")
	}
}

func TestEmbeddedAttrsSurviveFlushAndCompaction(t *testing.T) {
	opts := smallOpts()
	opts.SecondaryAttrs = []string{"user"}
	// The extractor hands out a view of a buffer its next call on the same
	// goroutine overwrites, as core's hands out views of block bytes:
	// whatever the engine keeps of it — B-tree keys, bloom inputs, zone
	// maps — must be a copy. The writer and a handoff's goroutine call it
	// at once, so each goroutine has a buffer of its own.
	var mu sync.Mutex
	scratches := map[string][]byte{}
	opts.Extract = func(dst []sstable.AttrValue, _, value []byte) []sstable.AttrValue {
		var doc map[string]string
		if json.Unmarshal(value, &doc) != nil {
			return dst
		}
		g := goroutineID()
		mu.Lock()
		scratch := append(scratches[g][:0], doc["user"]...)
		scratches[g] = scratch
		mu.Unlock()
		return append(dst, sstable.AttrValue{Attr: "user", Value: unsafe.String(unsafe.SliceData(scratch), len(scratch))})
	}
	db, _ := openTestDB(t, opts)
	for i := 0; i < 3000; i++ {
		v := fmt.Sprintf(`{"user":"u%03d","text":"padding padding padding"}`, i%40)
		mustPut(t, db, fmt.Sprintf("t%06d", i), v)
	}
	db.Flush()
	// Every table at every level must carry the embedded structures.
	for l, fms := range levelsOf(db) {
		lvl := fmt.Sprintf("L%d", l)
		for _, fm := range fms {
			if _, _, ok := fm.Table().FileZone("user"); !ok {
				t.Errorf("%s table %d lacks embedded attr", lvl, fm.Num)
			}
			for i := 0; i < fm.Table().NumBlocks(); i++ {
				if lo, hi, ok := fm.Table().BlockZone("user", i); !ok || len(lo) != 4 || len(hi) != 4 || lo > hi || hi > "u039" {
					t.Errorf("%s table %d block %d: zone [%q, %q] ok=%v", lvl, fm.Num, i, lo, hi, ok)
				}
			}
			if c := fm.Table().SecondaryCandidates("user", "u007", nil); len(c) == 0 {
				// u007 occurs every 40 entries; any table with ≥40
				// sequential entries must contain it.
				if fm.Table().EntryCount() > 80 {
					t.Errorf("%s table %d: no candidates for frequent user", lvl, fm.Num)
				}
			}
		}
	}
	// MemTable B-tree must cover unflushed entries.
	mustPut(t, db, "t999999", `{"user":"u999","text":"fresh"}`)
	mustPut(t, db, "t999998", `{"user":"u000","text":"overwrites the extractor's buffer"}`)
	db.View(func(v *View) error {
		tree := v.Strata()[0].MemSecTree("user")
		if tree == nil {
			t.Fatal("no memtable secondary tree")
		}
		if ps := tree.Get("u999"); len(ps) != 1 || string(ps[0].Key) != "t999999" {
			t.Fatalf("memtable B-tree postings = %v", ps)
		}
		return nil
	})
}

func TestViewStrata(t *testing.T) {
	opts := smallOpts()
	opts.L0CompactionTrigger = 100 // keep L0 files around
	db, _ := openTestDB(t, opts)
	mustPut(t, db, "a", "1")
	db.Flush()
	mustPut(t, db, "b", "2")
	db.Flush()
	mustPut(t, db, "c", "3")
	db.View(func(v *View) error {
		strata := v.Strata()
		if len(strata) != 3 { // mem + 2 L0 files
			t.Fatalf("strata = %d", len(strata))
		}
		if n := db.NumStrata(); n != len(strata) {
			t.Fatalf("NumStrata = %d, strata = %d", n, len(strata))
		}
		if !strata[0].IsMem() || strata[0].Frozen || strata[1].IsMem() || strata[2].IsMem() {
			t.Fatalf("strata kinds: %+v", strata)
		}
		for _, s := range strata[1:] {
			if s.Level != 0 || len(s.Tables) != 1 {
				t.Fatalf("L0 stratum: level %d, %d tables", s.Level, len(s.Tables))
			}
		}
		// Newest first: the "b" file must precede the "a" file.
		if got := string(ikey.UserKey(strata[1].Tables[0].Smallest)); got != "b" {
			t.Fatalf("L0 not newest-first: %q", got)
		}
		if _, _, _, ok := strata[0].MemGet([]byte("c")); !ok {
			t.Fatal("memtable miss in view")
		}
		return nil
	})
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	db.Close()
	if err := db.PutAt([]byte("k"), []byte("v"), 0); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := db.Get([]byte("k"), nil); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDiskUsageGrows(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	before, _ := db.DiskUsage()
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%064d", i))
	}
	db.Flush()
	after, _ := db.DiskUsage()
	if after <= before {
		t.Fatalf("disk usage did not grow: %d → %d", before, after)
	}
}

func BenchmarkPut(b *testing.B) {
	db, _ := openTestDB(b, &Options{MemTableBytes: 4 << 20})
	val := bytes.Repeat([]byte("v"), 550) // paper's average tweet size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.PutAt([]byte(fmt.Sprintf("tweet%010d", i)), val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetFromDisk(b *testing.B) {
	db, _ := openTestDB(b, smallOpts())
	const n = 5000
	for i := 0; i < n; i++ {
		db.PutAt([]byte(fmt.Sprintf("key%07d", i)), bytes.Repeat([]byte("v"), 100), 0)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key%07d", i%n)), nil)
	}
}

func TestWriteAmplificationMeasured(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	if db.Stats().Snapshot().WriteAmplification() != 0 {
		t.Fatal("WAMF nonzero before ingest")
	}
	// Shuffled keys: a sequential ingest would move tables down the tree
	// rather than rewrite them.
	for i := 0; i < 8000; i++ {
		mustPut(t, db, shuffledKey("key%07d", i, 8000), fmt.Sprintf("val%048d", i))
	}
	db.Flush()
	sn := db.Stats().Snapshot()
	if want := int64(8000 * (10 + 51)); sn.IngestBytes != want {
		t.Fatalf("IngestBytes = %d, want %d", sn.IngestBytes, want)
	}
	wamf := sn.WriteAmplification()
	// Data spans multiple levels, so each byte is rewritten a few times;
	// compression can pull the physical ratio below 1, but multi-level
	// churn must still leave a clearly positive factor.
	if wamf < 0.3 || wamf > 50 {
		t.Fatalf("implausible WAMF %.2f", wamf)
	}
	// Disabling compression must raise the physical ratio.
	opts2 := smallOpts()
	opts2.DisableCompression = true
	db2, _ := openTestDB(t, opts2)
	for i := 0; i < 8000; i++ {
		mustPut(t, db2, shuffledKey("key%07d", i, 8000), fmt.Sprintf("val%048d", i))
	}
	db2.Flush()
	if wamf2 := db2.Stats().Snapshot().WriteAmplification(); wamf2 <= wamf {
		t.Fatalf("uncompressed WAMF (%.2f) should exceed compressed (%.2f)", wamf2, wamf)
	}
}

// goroutineID returns the calling goroutine's number, from the header of
// its stack trace.
func goroutineID() string {
	var buf [64]byte
	header := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _, _ := strings.Cut(header, " ")
	if _, err := strconv.ParseUint(id, 10, 64); err != nil {
		panic("unexpected stack header " + header)
	}
	return id
}
