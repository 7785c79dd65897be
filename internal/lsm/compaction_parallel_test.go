package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"leveldbpp/internal/metrics"
)

// parallelWorkload drives enough writes, overwrites and deletes through db
// to stack several L0 compactions and deeper-level spills, with values big
// enough that compactions span many data blocks (so partitionBoundaries
// has material to split on).
func parallelWorkload(t testing.TB, db *DB, n int) {
	t.Helper()
	pad := strings.Repeat("x", 100)
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%06d", i), fmt.Sprintf("val-%06d-%s", i, pad))
		if i%17 == 0 && i > 0 {
			mustPut(t, db, fmt.Sprintf("key-%06d", i-9), fmt.Sprintf("over-%06d-%s", i, pad))
		}
		if i%29 == 0 && i > 0 {
			if err := db.Delete([]byte(fmt.Sprintf("key-%06d", i-13))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCompactionByteIdentical is the determinism contract of the
// sub-compaction engine at its strongest: the same workload run at
// CompactionParallelism 1 and 4 must leave byte-identical directories —
// every SSTable, the MANIFEST, and the WAL. The parallel engine may only
// change *how* each compaction executes, never what it produces.
func TestParallelCompactionByteIdentical(t *testing.T) {
	run := func(parallelism int) (string, *DB) {
		o := smallOpts()
		o.CompactionParallelism = parallelism
		dir := t.TempDir()
		db, err := Open(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		parallelWorkload(t, db, 3000)
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		return dir, db
	}
	dir1, db1 := run(1)
	dir4, db4 := run(4)

	// The parallel engine must actually have engaged: partitioned
	// compactions record one sub-compaction per partition.
	s1, s4 := db1.CompactionStats(), db4.CompactionStats()
	if s4.Subcompactions <= s1.Subcompactions {
		t.Fatalf("parallel engine never partitioned: parallelism 4 ran %d sub-compactions, parallelism 1 ran %d",
			s4.Subcompactions, s1.Subcompactions)
	}

	files1, err := os.ReadDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	files4, err := os.ReadDir(dir4)
	if err != nil {
		t.Fatal(err)
	}
	if len(files1) != len(files4) {
		t.Fatalf("file count differs: parallelism 1 has %d, parallelism 4 has %d", len(files1), len(files4))
	}
	for i, e1 := range files1 {
		e4 := files4[i]
		if e1.Name() != e4.Name() {
			t.Fatalf("file name differs: %s vs %s", e1.Name(), e4.Name())
		}
		b1, err := os.ReadFile(filepath.Join(dir1, e1.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b4, err := os.ReadFile(filepath.Join(dir4, e4.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b4) {
			t.Errorf("%s differs between parallelism 1 and 4 (%d vs %d bytes)", e1.Name(), len(b1), len(b4))
		}
	}
}

// TestParallelCompactionCrash kills a compaction mid-sub-compaction: the
// directory is snapshotted at the moment a finished output table sits on
// disk with no version edit referencing it. Reopening the snapshot must
// serve exactly the pre-compaction data (the partial outputs are never
// replayed into the tree) and must delete them as orphans.
func TestParallelCompactionCrash(t *testing.T) {
	o := smallOpts()
	o.CompactionParallelism = 4
	dir := t.TempDir()
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	parallelWorkload(t, db, 2500)

	// Everything acknowledged so far, as ground truth for the crash image.
	want := map[string]string{}
	err = db.Scan(nil, nil, func(k, v []byte, _ uint64) bool {
		want[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the directory the first time a compaction output rolls —
	// the on-disk state a kill -9 would leave behind at that instant.
	crash := t.TempDir()
	var once sync.Once
	snapped := false
	db.testCompactRoll = func() {
		once.Do(func() {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Error(err)
					return
				}
				if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
					t.Error(err)
					return
				}
			}
			snapped = true
		})
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	db.testCompactRoll = nil
	if !snapped {
		t.Fatal("CompactRange rolled no output table; workload too small")
	}

	// The snapshot must contain at least one table the manifest does not
	// reference — the partial sub-compaction output.
	orphans := orphanTables(t, crash)
	if len(orphans) == 0 {
		t.Fatal("crash image has no unreferenced table; snapshot raced the version edit")
	}

	re, err := Open(crash, func() *Options {
		o := smallOpts()
		o.CompactionParallelism = 4
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := map[string]string{}
	err = re.Scan(nil, nil, func(k, v []byte, _ uint64) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("crash recovery: %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("crash recovery: Get(%s) = %q, want %q", k, got[k], v)
		}
	}
	if rep, err := re.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after crash recovery: %v %v", err, rep.Problems)
	}
	// The partial outputs were orphans; Open must have removed them.
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(crash, name)); !os.IsNotExist(err) {
			t.Errorf("partial sub-compaction output %s survived recovery", name)
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".sst" && !live[e.Name()] {
			orphans = append(orphans, e.Name())
		}
	}
	return orphans
}

// TestParallelCompactionErrorAttribution injects a mid-merge read failure
// (an input table truncated underneath the engine) and checks the two
// error-surfacing contracts: CompactRange returns the failure tagged with
// the partition's user-key range, and the event log records a
// compaction_error event naming that range.
func TestParallelCompactionErrorAttribution(t *testing.T) {
	log := metrics.NewEventLog(256)
	o := smallOpts()
	o.CompactionParallelism = 4
	o.Events = log
	dir := t.TempDir()
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

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

	// Truncate one input table: the block index is already in memory, so
	// partitioning still engages, and the partition that reads the lost
	// data blocks fails mid-merge.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".sst" {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 16); err != nil {
				t.Fatal(err)
			}
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("no table on disk after three flushes")
	}

	err = db.CompactRange(nil, nil)
	if err == nil {
		t.Fatal("CompactRange succeeded over a truncated input table")
	}
	var se *subcompactionError
	if !errors.As(err, &se) {
		t.Fatalf("CompactRange error %v does not carry a partition range", err)
	}
	found := false
	for _, ev := range log.Events() {
		if ev.Type == metrics.EventCompactionError && strings.Contains(ev.Detail, "partition [") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no compaction_error event names the failed partition; events: %+v", log.Events())
	}
}

// TestParallelCompactionStress is the race-detector workout for the
// sub-compaction worker pool and the two background compaction runners:
// concurrent writers and readers run against a background-mode DB with
// CompactionParallelism 4 (two runners), with a manual CompactRange in the
// middle. Wired into `make lint-race`.
func TestParallelCompactionStress(t *testing.T) {
	o := smallOpts()
	o.BackgroundCompaction = true
	o.CompactionParallelism = 4
	dir := t.TempDir()
	db, err := Open(dir, o)
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

	// Reopen in deterministic mode: the on-disk state parallel jobs left
	// behind must be mode- and parallelism-independent.
	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep, err := re.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after reopen: %v %v", err, rep.Problems)
	}
}
