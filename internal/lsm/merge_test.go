package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
)

// bigJobOpts keeps every flush in level 0 until CompactRange, whose first
// job then merges all of them at once. loadBigJob's uncompressed values
// make that job several MiB, more than one output table (maxTableBytes),
// so its first output rolls while the merge goroutine still has more
// batches to send than the channel holds.
func bigJobOpts() *Options {
	o := smallOpts()
	o.MemTableBytes = 512 << 10
	o.L0CompactionTrigger = 1 << 20
	o.DisableCompression = true
	return o
}

// loadBigJob writes, overwrites and deletes ~3.5 MiB of 1 KiB values,
// flushes, and returns every live key with its value.
func loadBigJob(t *testing.T, db *DB) map[string]string {
	t.Helper()
	pad := strings.Repeat("x", 1000)
	want := map[string]string{}
	for i := 0; i < 3500; i++ {
		k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%05d-%s", i, pad)
		mustPut(t, db, k, v)
		want[k] = v
		if i%17 == 0 && i > 0 {
			k, v := fmt.Sprintf("key-%05d", i-9), fmt.Sprintf("over-%05d-%s", i, pad)
			mustPut(t, db, k, v)
			want[k] = v
		}
		if i%29 == 0 && i > 0 {
			k := fmt.Sprintf("key-%05d", i-13)
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkContents fails unless db holds exactly want.
func checkContents(t *testing.T, db *DB, want map[string]string, when string) {
	t.Helper()
	got := map[string]string{}
	err := db.Scan(nil, nil, func(k, v []byte, _ uint64) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", when, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: Get(%s) = %.20q..., want %.20q...", when, k, got[k], v)
		}
	}
}

// tableFiles returns the names of the .sst files in dir.
func tableFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".sst" {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCompactionCrashMidMerge kills a compaction mid-merge: the directory
// is snapshotted the moment the first output table rolls, with the merge
// still running and no version edit referencing the output. Reopening the
// snapshot must serve exactly the pre-compaction data (the partial output
// is never replayed into the tree) and must delete it as an orphan.
func TestCompactionCrashMidMerge(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bigJobOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := loadBigJob(t, db)

	// Snapshot the directory the first time a compaction output rolls —
	// the on-disk state a kill -9 would leave behind at that instant.
	crash := t.TempDir()
	snapped := false
	db.testCompactRoll = func() error {
		if snapped {
			return nil
		}
		snapped = true
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	db.testCompactRoll = nil
	if !snapped {
		t.Fatal("CompactRange rolled no output table")
	}

	// The snapshot must contain a table the manifest does not reference —
	// the partial output.
	orphans := orphanTables(t, crash)
	if len(orphans) == 0 {
		t.Fatal("crash image has no unreferenced table; snapshot raced the version edit")
	}

	re, err := Open(crash, bigJobOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkContents(t, re, want, "crash recovery")
	if rep, err := re.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after crash recovery: %v %v", err, rep.Problems)
	}
	// The partial outputs were orphans; Open must have removed them.
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(crash, name)); !os.IsNotExist(err) {
			t.Errorf("partial compaction output %s survived recovery", name)
		}
	}
}

// orphanTables returns the .sst files in dir that the MANIFEST does not
// reference.
func orphanTables(t *testing.T, dir string) []string {
	t.Helper()
	m, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("load manifest: %v (ok=%v)", err, ok)
	}
	live := map[string]bool{}
	for _, level := range m.Levels {
		for _, fr := range level {
			live[filepath.Base(tablePath(dir, fr.Num))] = true
		}
	}
	var orphans []string
	for _, name := range tableFiles(t, dir) {
		if !live[name] {
			orphans = append(orphans, name)
		}
	}
	return orphans
}

// TestCompactionWriterFailureCancels fails a compaction's writer at its
// first output roll, while the merge goroutine is still blocked sending
// batches: the writer must close quit so the merge goroutine exits.
// CompactRange must return the writer's error as it is, every output the
// job wrote must be gone, no goroutine may be left, and the DB must keep
// serving reads, writes and a retried compaction.
func TestCompactionWriterFailureCancels(t *testing.T) {
	base := runtime.NumGoroutine()
	db, dir := openTestDB(t, bigJobOpts())
	want := loadBigJob(t, db)
	before := tableFiles(t, dir)

	errRoll := errors.New("injected output roll failure")
	rolls := 0
	db.testCompactRoll = func() error {
		rolls++
		return errRoll
	}
	err := db.CompactRange(nil, nil)
	db.testCompactRoll = nil
	if err != errRoll {
		t.Fatalf("CompactRange = %v, want the writer's error %v", err, errRoll)
	}
	if rolls != 1 {
		t.Fatalf("writer rolled %d outputs after failing, want 1", rolls)
	}
	waitGoroutines(t, base)
	if after := tableFiles(t, dir); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("tables after the failed job = %v, want the inputs %v", after, before)
	}

	checkContents(t, db, want, "after the failed compaction")
	mustPut(t, db, "key-new", "fresh")
	want["key-new"] = "fresh"
	if v, ok := mustGet(t, db, "key-new"); !ok || v != "fresh" {
		t.Fatalf("Get(key-new) = %q %v after the failed compaction", v, ok)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("retried CompactRange: %v", err)
	}
	checkContents(t, db, want, "after the retried compaction")
	if orphans := orphanTables(t, dir); len(orphans) != 0 {
		t.Fatalf("unreferenced tables after the retry: %v", orphans)
	}
	if rep, err := db.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}

// TestMergeGroupsAllocations merges a MemTable of 3 000 versions of 1 000
// keys: the one reused key group must keep mergeGroups' allocations
// independent of the number of versions it copies. Only the heap's set-up
// and the growth of the group's buffers allocate (17 times here).
func TestMergeGroupsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	mem := newMemTable(nil)
	seq := uint64(0)
	for v := 0; v < 3; v++ {
		for k := 0; k < 1000; k++ {
			seq++
			mem.add(seq, ikey.KindSet, []byte(fmt.Sprintf("key-%04d", k)), []byte(fmt.Sprintf("value-%d-%d", k, v)), nil)
		}
	}
	groups := 0
	allocs := testing.AllocsPerRun(5, func() {
		var h mergeHeap
		it := mem.iter()
		it.SeekToFirst()
		h.pushMem(it)
		groups = 0
		if err := mergeGroups(h, func(g *keyGroup) error {
			groups++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if groups != 1000 {
		t.Fatalf("mergeGroups formed %d groups, want 1000", groups)
	}
	if allocs > 40 {
		t.Fatalf("mergeGroups made %.0f allocations for 3 000 versions, want at most 40", allocs)
	}
}

// TestFlushWriterFailure fails a flush's writer when it rolls its level-0
// table. Flush must return the writer's error, which stays sticky; the
// table must be gone and no goroutine left; the frozen MemTable must keep
// serving reads; and every acknowledged write must survive a reopen.
func TestFlushWriterFailure(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bigJobOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	want := loadBigJob(t, db)
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("late-%04d", i), fmt.Sprintf("v%d", i)
		mustPut(t, db, k, v)
		want[k] = v
	}
	if err := db.Delete([]byte("key-00001")); err != nil {
		t.Fatal(err)
	}
	delete(want, "key-00001")
	before := tableFiles(t, dir)

	errRoll := errors.New("injected flush roll failure")
	db.testCompactRoll = func() error { return errRoll }
	err = db.Flush()
	db.testCompactRoll = nil
	if err != errRoll {
		t.Fatalf("Flush = %v, want the writer's error %v", err, errRoll)
	}
	if err := db.Flush(); err != errRoll {
		t.Fatalf("second Flush = %v, want the sticky %v", err, errRoll)
	}
	if err := db.Put([]byte("refused"), []byte("x")); err != errRoll {
		t.Fatalf("Put after the failed flush = %v, want the sticky %v", err, errRoll)
	}
	if after := tableFiles(t, dir); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("tables after the failed flush = %v, want %v", after, before)
	}
	waitGoroutines(t, base)
	db.mu.RLock()
	frozen := db.imm != nil
	db.mu.RUnlock()
	if !frozen {
		t.Fatal("the failed flush released its frozen MemTable")
	}
	checkContents(t, db, want, "after the failed flush")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, bigJobOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkContents(t, re, want, "after reopen")
}

// TestCompactionErrorEvent injects a mid-merge read failure (an input
// table truncated underneath the engine): CompactRange must fail with the
// merge goroutine's error, and the event log must record it as a
// compaction_error event.
func TestCompactionErrorEvent(t *testing.T) {
	log := metrics.NewEventLog(256)
	o := smallOpts()
	o.Events = log
	db, dir := openTestDB(t, o)

	// Three manual flushes stay under L0CompactionTrigger (4), so no
	// compaction runs until CompactRange below.
	pad := strings.Repeat("z", 100)
	for f := 0; f < 3; f++ {
		for i := 0; i < 50; i++ {
			mustPut(t, db, fmt.Sprintf("key-%06d", f*50+i), fmt.Sprintf("val-%d-%s", i, pad))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Truncate one input table: its block index is already in memory, so
	// the job is picked as usual and fails when the merge reads the lost
	// data blocks.
	tables := tableFiles(t, dir)
	if len(tables) == 0 {
		t.Fatal("no table on disk after three flushes")
	}
	if err := os.Truncate(filepath.Join(dir, tables[0]), 16); err != nil {
		t.Fatal(err)
	}

	err := db.CompactRange(nil, nil)
	if err == nil {
		t.Fatal("CompactRange succeeded over a truncated input table")
	}
	found := false
	for _, ev := range log.Events() {
		if ev.Type == metrics.EventCompactionError && ev.Detail == err.Error() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no compaction_error event carries %q; events: %+v", err, log.Events())
	}
}

// TestBackgroundCompactionStress is the race-detector workout for
// writer-run compaction jobs and their merge goroutines: concurrent
// writers and readers run against one DB, with a manual CompactRange in
// the middle. Wired into `make lint-race`.
func TestBackgroundCompactionStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 600
	)
	pad := strings.Repeat("y", 80)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("w%d-key-%05d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%d-%s", w, i, pad))); err != nil {
					t.Error(err)
					return
				}
				if i%11 == 0 {
					if err := db.Delete([]byte(fmt.Sprintf("w%d-key-%05d", w, i/2))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := db.Get([]byte(fmt.Sprintf("w%d-key-%05d", i%writers, i%perW))); err != nil && err != ErrClosed {
				t.Error(err)
				return
			}
			if i%40 == 0 {
				err := db.Scan([]byte("w1"), []byte("w3"), func(_, _ []byte, _ uint64) bool { return true })
				if err != nil && err != ErrClosed {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		if err := db.CompactRange(nil, nil); err != nil && err != ErrClosed {
			t.Error(err)
		}
	}()

	writersDone := make(chan struct{})
	go func() {
		// Writer goroutines are the first `writers` waits; poll lastSeq
		// instead of adding a second WaitGroup.
		for {
			db.mu.RLock()
			n := db.lastSeq
			db.mu.RUnlock()
			if n >= uint64(writers*perW) {
				close(writersDone)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	<-writersDone
	close(stop)
	wg.Wait()

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keys never targeted by the i/2 deletes must carry their final value.
	for w := 0; w < writers; w++ {
		for i := perW / 2; i < perW; i++ {
			k := fmt.Sprintf("w%d-key-%05d", w, i)
			if v, ok := mustGet(t, db, k); !ok || v != fmt.Sprintf("val-%d-%d-%s", w, i, pad) {
				t.Fatalf("Get(%s) = %.40q... %v", k, v, ok)
			}
		}
	}
	if rep, err := db.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
	closeWithin(t, db)

	// Reopen: the on-disk state the concurrent jobs left behind must
	// verify.
	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep, err := re.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after reopen: %v %v", err, rep.Problems)
	}
}
