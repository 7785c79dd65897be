package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"leveldbpp/internal/metrics"
)

func bgOpts() *Options {
	o := smallOpts()
	o.BackgroundCompaction = true
	return o
}

func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: have %d, want <= %d", runtime.NumGoroutine(), want)
}

// closeWithin closes db, failing with a dump of every goroutine if Close
// has not returned within a few seconds. A background goroutine that
// never exits hangs Close in its WaitGroup; every background-mode test
// closes through here, so such a leak fails the first of them with a dump
// that names the goroutine instead of hanging the package until its
// timeout.
func closeWithin(t *testing.T, db *DB) {
	t.Helper()
	const deadline = 5 * time.Second
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(deadline):
		buf := make([]byte, 1<<20)
		t.Fatalf("Close did not return within %v; goroutines:\n%s", deadline, buf[:runtime.Stack(buf, true)])
	}
}

// TestBackgroundBasic drives a background-mode DB through many flushes
// and compactions, then reopens the directory in deterministic mode to
// prove the on-disk formats (manifest, WAL segments, tables) are
// mode-independent.
func TestBackgroundBasic(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.BackgroundStats()
	if st.Flushes == 0 {
		t.Fatalf("no background flushes ran: %+v", st)
	}
	for i := 0; i < n; i += 97 {
		k := fmt.Sprintf("key-%05d", i)
		if v, ok := mustGet(t, db, k); !ok || v != fmt.Sprintf("value-%05d", i) {
			t.Fatalf("Get(%s) = %q %v", k, v, ok)
		}
	}
	closeWithin(t, db)

	// Cross-mode reopen: deterministic.
	det, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if v, ok := mustGet(t, det, k); !ok || v != fmt.Sprintf("value-%05d", i) {
			t.Fatalf("after deterministic reopen, Get(%s) = %q %v", k, v, ok)
		}
	}
	if rep, err := det.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after reopen: %v %v", err, rep.Problems)
	}
}

// TestBackgroundFrozenMemtableVisible checks the read paths while a
// frozen MemTable is parked behind the blocked flusher: Get and Scan must
// see its records, and newer live-MemTable versions must shadow it.
func TestBackgroundFrozenMemtableVisible(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)
	block := make(chan struct{})
	db.mu.Lock()
	db.testBlockFlush = block
	db.mu.Unlock()

	i := 0
	for {
		mustPut(t, db, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i))
		i++
		db.mu.RLock()
		frozen := db.imm != nil
		db.mu.RUnlock()
		if frozen {
			break
		}
		if i > 100000 {
			t.Fatal("memtable never froze")
		}
	}
	// Overwrite one frozen key in the live MemTable.
	mustPut(t, db, "key-00000", "newer")

	if v, ok := mustGet(t, db, "key-00000"); !ok || v != "newer" {
		t.Fatalf("Get(key-00000) = %q %v, want newer", v, ok)
	}
	if v, ok := mustGet(t, db, "key-00001"); !ok || v != "value-00001" {
		t.Fatalf("Get(key-00001) = %q %v", v, ok)
	}
	got := map[string]string{}
	err = db.Scan(nil, nil, func(k, v []byte, _ uint64) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != i {
		t.Fatalf("scan saw %d keys, want %d", len(got), i)
	}
	if got["key-00000"] != "newer" {
		t.Fatalf("scan saw %q for overwritten key", got["key-00000"])
	}
	close(block)
	db.mu.Lock()
	db.testBlockFlush = nil
	db.mu.Unlock()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCrashRecovery freezes a MemTable, blocks its flush, and
// copies the directory — a crash image with an unflushed frozen MemTable
// and a live MemTable, each backed only by WAL segments. Reopening the
// copy must replay every acknowledged write.
func TestBackgroundCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)
	block := make(chan struct{})
	db.mu.Lock()
	db.testBlockFlush = block
	db.mu.Unlock()

	want := map[string]string{}
	i := 0
	for {
		k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i)
		mustPut(t, db, k, v)
		want[k] = v
		i++
		db.mu.RLock()
		frozen := db.imm != nil
		db.mu.RUnlock()
		if frozen {
			break
		}
		if i > 100000 {
			t.Fatal("memtable never froze")
		}
	}
	// A few more writes land in the fresh MemTable + new WAL segment.
	for j := 0; j < 50; j++ {
		k, v := fmt.Sprintf("post-%05d", j), fmt.Sprintf("pv-%05d", j)
		mustPut(t, db, k, v)
		want[k] = v
	}

	// Crash image: copy the directory while the flusher is still blocked
	// (the frozen MemTable exists nowhere but its WAL segments).
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock() // exclude concurrent manifest writes while copying
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.RUnlock()
	close(block)

	re, err := Open(crash, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, re)
	for k, v := range want {
		if got, ok := mustGet(t, re, k); !ok || got != v {
			t.Fatalf("after crash recovery, Get(%s) = %q %v, want %q", k, got, ok, v)
		}
	}
}

// TestBackgroundCloseDrains proves Close waits for in-flight background
// work and leaves no goroutines behind, and that a reopen loses nothing.
// A runner that never exits fails it in seconds (see closeWithin).
func TestBackgroundCloseDrains(t *testing.T) {
	// The subtest name is kept from when the number of compaction runners
	// was an option; the pipeline now always runs exactly one.
	t.Run("parallelism=1", func(t *testing.T) {
		base := runtime.NumGoroutine()
		dir := t.TempDir()
		db, err := Open(dir, bgOpts())
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000
		for i := 0; i < n; i++ {
			mustPut(t, db, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i))
		}
		// Close immediately: a frozen MemTable may be mid-flush and the
		// runner mid-merge; both must drain.
		closeWithin(t, db)
		waitGoroutines(t, base)

		re, err := Open(dir, bgOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%05d", i)
			if v, ok := mustGet(t, re, k); !ok || v != fmt.Sprintf("value-%05d", i) {
				t.Fatalf("after reopen, Get(%s) = %q %v", k, v, ok)
			}
		}
		closeWithin(t, re)
		waitGoroutines(t, base)

		// Closing twice is fine; writes after Close fail.
		closeWithin(t, re)
		if err := re.Put([]byte("x"), []byte("y")); err != ErrClosed {
			t.Fatalf("Put after Close = %v, want ErrClosed", err)
		}
	})
}

// TestBackgroundConcurrentStress runs writers, point readers and scanners
// against the background pipeline at once — the race-detector workout for
// the MemTable handoff, version install-by-copy, and throttle paths.
func TestBackgroundConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 800
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("w%d-key-%05d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if err := db.Delete([]byte(fmt.Sprintf("w%d-key-%05d", w, i/2))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: point gets and scans on whatever exists.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.Get([]byte(fmt.Sprintf("w%d-key-%05d", r, i%perW))); err != nil && err != ErrClosed {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					err := db.Scan([]byte("w0"), []byte("w1"), func(_, _ []byte, _ uint64) bool { return true })
					if err != nil && err != ErrClosed {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	// One manual compaction mid-stream exercises the compactionMu path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		if err := db.CompactRange(nil, nil); err != nil && err != ErrClosed {
			t.Error(err)
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish first; then stop the readers.
	for {
		select {
		case <-done:
		default:
		}
		var writersAlive bool
		db.mu.RLock()
		writersAlive = db.lastSeq < uint64(writers*perW) // lower bound incl. deletes
		db.mu.RUnlock()
		if !writersAlive {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	<-done

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every key that wasn't deleted must be present with its final value.
	for w := 0; w < writers; w++ {
		for i := perW / 2; i < perW; i++ { // indices never targeted by deletes
			k := fmt.Sprintf("w%d-key-%05d", w, i)
			if v, ok := mustGet(t, db, k); !ok || v != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("Get(%s) = %q %v", k, v, ok)
			}
		}
	}
	if rep, err := db.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
	closeWithin(t, db)
}

// TestBackgroundCheckpoint takes a checkpoint while the pipeline is busy
// and verifies the copy opens and contains everything acknowledged before
// the call.
func TestBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, bgOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)
	const n = 1500
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i))
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := db.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	re, err := Open(ckpt, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if v, ok := mustGet(t, re, k); !ok || v != fmt.Sprintf("value-%05d", i) {
			t.Fatalf("checkpoint Get(%s) = %q %v", k, v, ok)
		}
	}
}

// checkSettled fails unless the pipeline is idle: no frozen MemTable, no
// compaction job in flight, every shape invariant satisfied.
func checkSettled(t *testing.T, db *DB, after string) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.imm != nil || db.bg.jobs != 0 || db.needsCompactionLocked() {
		t.Fatalf("after %s: frozen=%v jobs=%d needsCompaction=%v",
			after, db.imm != nil, db.bg.jobs, db.needsCompactionLocked())
	}
}

// checkNoPipelineGoroutines fails if a flusher or compaction runner is
// alive anywhere in the process.
func checkNoPipelineGoroutines(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"(*DB).flusher", "(*DB).compactor"} {
		if strings.Contains(stacks, fn) {
			t.Fatalf("deterministic mode started a pipeline goroutine: %s", fn)
		}
	}
}

// TestDeterministicModeContract guards the default mode: the writer runs
// the pipeline's flush and compaction jobs itself, so whenever Put or
// Flush returns no MemTable is frozen, no job is in flight and the tree
// is in shape, and no pipeline goroutine ever starts.
func TestDeterministicModeContract(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 3000; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", i%1100), fmt.Sprintf("value-%05d", i))
		checkSettled(t, db, "Put")
		if i%700 == 699 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			checkSettled(t, db, "Flush")
		}
	}
	st := db.BackgroundStats()
	if st.Flushes == 0 || st.Compactions == 0 || st.Slowdowns != 0 || st.ThrottleWaits != 0 {
		t.Fatalf("deterministic BackgroundStats = %+v; want flushes and compactions, no throttling", st)
	}
	checkNoPipelineGoroutines(t)
}

// drainAudit is an event sink that checks two pipeline invariants as the
// events arrive (the engine emits them under db.mu, so they are ordered):
// every frozen MemTable is flushed exactly once, and two in-flight
// compaction jobs never share a level.
type drainAudit struct {
	t *testing.T

	mu          sync.Mutex
	busy        map[int]bool // guarded by mu; levels of in-flight jobs
	frozen      int          // guarded by mu; MemTables frozen, not yet flushing
	freezes     int          // guarded by mu
	flushes     int          // guarded by mu
	overlapping int          // guarded by mu; job starts while another job ran
}

func (a *drainAudit) Emit(e metrics.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Type {
	case metrics.EventMemFreeze:
		a.freezes++
		a.frozen++
	case metrics.EventFlushStart:
		if a.frozen != 1 {
			a.t.Errorf("flush started with %d frozen MemTables awaiting a flush", a.frozen)
		}
		a.frozen--
		a.flushes++
	case metrics.EventCompactionStart:
		if a.busy[e.Level] || a.busy[e.Level+1] {
			a.t.Errorf("compaction L%d→L%d started while a job held one of its levels", e.Level, e.Level+1)
		}
		if len(a.busy) > 0 {
			a.overlapping++
		}
		a.busy[e.Level], a.busy[e.Level+1] = true, true
	case metrics.EventCompactionDone, metrics.EventCompactionError:
		delete(a.busy, e.Level)
		delete(a.busy, e.Level+1)
	}
}

// TestDeterministicConcurrentDrains races writers, Flush and CompactRange
// in deterministic mode, where each of them runs flush and compaction
// jobs on its own goroutine. Each frozen MemTable must be flushed exactly
// once (its freezer owns the flush; a second drain must not flush it
// again), concurrent jobs must never share a level, and the result must
// hold every write. Wired into `make lint-race`.
func TestDeterministicConcurrentDrains(t *testing.T) {
	audit := &drainAudit{t: t, busy: map[int]bool{}}
	o := smallOpts()
	o.BaseLevelBytes = 8 << 10 // frequent deeper jobs beside L0→L1 ones
	o.Events = audit
	db, _ := openTestDB(t, o)

	const (
		writers = 4
		perW    = 1500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("w%d-key-%05d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%d-padding-padding-padding-padding-padding", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := db.Flush(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			lo := []byte(fmt.Sprintf("w%d", i%writers))
			if err := db.CompactRange(lo, nil); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSettled(t, db, "the race")
	checkNoPipelineGoroutines(t)

	audit.mu.Lock()
	freezes, flushes, frozen := audit.freezes, audit.flushes, audit.frozen
	t.Logf("%d freezes, %d job starts overlapped another job", freezes, audit.overlapping)
	audit.mu.Unlock()
	if freezes == 0 || flushes != freezes || frozen != 0 {
		t.Fatalf("%d MemTables frozen, %d flushes started, %d left frozen", freezes, flushes, frozen)
	}
	if st := db.BackgroundStats(); st.Flushes != int64(freezes) {
		t.Fatalf("BackgroundStats.Flushes = %d, want %d (one per frozen MemTable)", st.Flushes, freezes)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			k := fmt.Sprintf("w%d-key-%05d", w, i)
			if v, ok := mustGet(t, db, k); !ok || v != fmt.Sprintf("val-%d-%d-padding-padding-padding-padding-padding", w, i) {
				t.Fatalf("Get(%s) = %q %v", k, v, ok)
			}
		}
	}
	if rep, err := db.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}
