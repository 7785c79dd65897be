package lsm

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/vfs/vfstest"
)

// flushBlock parks every table create that starts after blockFlushes —
// a flush's, or a compaction's — until release.
type flushBlock struct {
	parked  <-chan struct{}
	release func() // lets the parked job, and every later one, run
}

// blockFlushes parks db's table creates through the vfstest.FS it was
// opened on (useFaultFS).
func blockFlushes(t *testing.T, db *DB) *flushBlock {
	t.Helper()
	fs, ok := db.opts.FS.(*vfstest.FS)
	if !ok {
		t.Fatal("blockFlushes: the DB was not opened through useFaultFS")
	}
	parked, release := fs.Park(func(op vfstest.Op, path string) bool {
		return op == vfstest.OpCreate && filepath.Ext(path) == ".sst"
	})
	return &flushBlock{parked, release}
}

// waitParked waits until a job has parked at its table create. It fails
// after a few seconds, or as soon as stop yields (a nil stop never does).
func (b *flushBlock) waitParked(t *testing.T, stop <-chan error) {
	t.Helper()
	select {
	case <-b.parked:
	case err := <-stop:
		t.Fatalf("stopped with %v before a flush job parked", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no flush job parked")
	}
}

// parkFlush freezes db's MemTable and parks the flush job: a Flush on its
// own goroutine freezes the MemTable and blocks as it creates the table.
// Readers see the frozen MemTable meanwhile, and writers commit to the
// fresh live MemTable as long as they do not fill it (a full one waits
// for the frozen slot). db must have been opened through useFaultFS; the
// caller must have written to the MemTable and must not write while
// parkFlush runs. The returned func releases the flush and returns the
// parked Flush's error.
func parkFlush(t *testing.T, db *DB) func() error {
	t.Helper()
	installPending(t, db) // a running handoff's tables must not park
	b := blockFlushes(t, db)
	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	b.waitParked(t, flushed)
	return func() error {
		b.release()
		return <-flushed
	}
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
// has not returned within a few seconds. Close waits for the flush and
// compaction jobs that writers are running; a job that never ends hangs
// it, and the tests with concurrent writers close through here, so such a
// hang fails them with a dump that names the stuck goroutine instead of
// hanging the package until its timeout.
func closeWithin(t *testing.T, db *DB) {
	t.Helper()
	awaitClose(t, closeAsync(db))
}

// closeAsync starts db.Close on its own goroutine and returns its result
// channel.
func closeAsync(db *DB) <-chan error {
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	return done
}

// awaitClose waits for a Close started by closeAsync, as closeWithin does.
func awaitClose(t *testing.T, done <-chan error) {
	t.Helper()
	const deadline = 5 * time.Second
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

// writeConcurrently runs writers goroutines that each put perW keys
// (writerKey, writerValue) and returns once all have finished; each
// writer runs the flush and compaction jobs its writes trigger. It fails
// the test on the first write error.
func writeConcurrently(t *testing.T, db *DB, writers, perW int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := db.PutAt([]byte(writerKey(w, i)), []byte(writerValue(w, i)), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

func writerKey(w, i int) string   { return fmt.Sprintf("w%d-key-%05d", w, i) }
func writerValue(w, i int) string { return fmt.Sprintf("val-%d-%d", w, i) }

// checkWriters fails unless db holds every key of writeConcurrently.
func checkWriters(t *testing.T, db *DB, writers, perW int, after string) {
	t.Helper()
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			if v, ok := mustGet(t, db, writerKey(w, i)); !ok || v != writerValue(w, i) {
				t.Fatalf("%s: Get(%s) = %q %v", after, writerKey(w, i), v, ok)
			}
		}
	}
}

// TestBackgroundBasic drives a DB through many flushes and compactions
// run by concurrent writers, then reopens the directory: every write must
// be readable before and after, and the reopened tree must verify.
func TestBackgroundBasic(t *testing.T) {
	dir := t.TempDir()
	log := metrics.NewEventLog(0)
	o := smallOpts()
	o.Events = log
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perW = 4, 500
	writeConcurrently(t, db, writers, perW)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := log.Counts(); c[metrics.EventFlushDone] == 0 || c[metrics.EventCompactionDone] == 0 {
		t.Fatalf("events = %v, want flushes and compactions", c)
	}
	checkWriters(t, db, writers, perW, "before reopen")
	closeWithin(t, db)

	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, re)
	checkWriters(t, re, writers, perW, "after reopen")
	if rep, err := re.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("verify after reopen: %v %v", err, rep.Problems)
	}
}

// TestBackgroundFrozenMemtableVisible checks the read paths while a
// frozen MemTable is parked behind its blocked flush job: Get and Scan
// must see its records, newer live-MemTable versions must shadow it, and
// View.Strata must list it second, after the live MemTable.
func TestBackgroundFrozenMemtableVisible(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	useFaultFS(o)
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)

	const n = 100 // well under one MemTable: only the parked Flush freezes
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i))
	}
	release := parkFlush(t, db)
	// Overwrite one frozen key in the live MemTable.
	mustPut(t, db, "key-00000", "newer")

	if v, ok := mustGet(t, db, "key-00000"); !ok || v != "newer" {
		t.Fatalf("Get(key-00000) = %q %v, want newer", v, ok)
	}
	if v, ok := mustGet(t, db, "key-00001"); !ok || v != "value-00001" {
		t.Fatalf("Get(key-00001) = %q %v", v, ok)
	}
	got := map[string]string{}
	err = db.Scan(nil, nil, nil, func(k, v []byte, _ uint64) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan saw %d keys, want %d", len(got), n)
	}
	if got["key-00000"] != "newer" {
		t.Fatalf("scan saw %q for overwritten key", got["key-00000"])
	}
	lastSeq := db.LastSeq()
	err = db.View(func(v *View) error {
		strata := v.Strata()
		if len(strata) < 2 || !strata[0].IsMem() || strata[0].Frozen || !strata[1].IsMem() || !strata[1].Frozen {
			t.Fatalf("strata do not start [live, frozen]: %+v", strata)
		}
		for _, s := range strata[2:] {
			if s.IsMem() || s.Frozen {
				t.Fatalf("MemTable stratum after the frozen one: %+v", s)
			}
		}
		// Each MemTable's MaxSeq is the highest seq it holds; the live one
		// holds the newest write, and every frozen seq is older than every
		// live one.
		minSeq := [2]uint64{^uint64(0), ^uint64(0)}
		for i, s := range strata[:2] {
			var maxSeq uint64
			it := s.MemIter()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				seq := ikey.Seq(it.Key())
				maxSeq = max(maxSeq, seq)
				minSeq[i] = min(minSeq[i], seq)
			}
			if s.MaxSeq() != maxSeq {
				t.Fatalf("stratum %d MaxSeq = %d, holds up to %d", i, s.MaxSeq(), maxSeq)
			}
		}
		if strata[0].MaxSeq() != lastSeq {
			t.Fatalf("live MaxSeq = %d, LastSeq = %d", strata[0].MaxSeq(), lastSeq)
		}
		if strata[1].MaxSeq() >= minSeq[0] {
			t.Fatalf("frozen MaxSeq %d not below live seqs (min %d)", strata[1].MaxSeq(), minSeq[0])
		}
		if val, _, deleted, ok := strata[0].MemGet([]byte("key-00000")); !ok || deleted || string(val) != "newer" {
			t.Fatalf("live MemGet(key-00000) = %q %v %v, want newer", val, deleted, ok)
		}
		if val, _, deleted, ok := strata[1].MemGet([]byte("key-00000")); !ok || deleted || string(val) != "value-00000" {
			t.Fatalf("frozen MemGet(key-00000) = %q %v %v, want value-00000", val, deleted, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCrashRecovery parks a flush job and copies the directory —
// a crash image with an unflushed frozen MemTable and a live MemTable,
// each backed only by WAL segments. Reopening the copy must replay every
// acknowledged write.
func TestBackgroundCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	useFaultFS(o)
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)

	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d", i)
		mustPut(t, db, k, v)
		want[k] = v
	}
	release := parkFlush(t, db)
	// A few more writes land in the fresh MemTable + new WAL segment.
	for j := 0; j < 50; j++ {
		k, v := fmt.Sprintf("post-%05d", j), fmt.Sprintf("pv-%05d", j)
		mustPut(t, db, k, v)
		want[k] = v
	}

	// Crash image: copy the directory while the flush is still parked
	// (the frozen MemTable exists nowhere but its WAL segments).
	db.mu.RLock() // exclude concurrent manifest writes while copying
	crash := copyDir(t, dir)
	db.mu.RUnlock()
	if err := release(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(crash, smallOpts())
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

// TestBackgroundCloseDrains proves Close waits for the flush and
// compaction jobs that concurrent writers are running, leaves no
// goroutines behind, and that a reopen loses no acknowledged write. A
// parked flush job holds Close until it is released; a job that never
// ends fails the test in seconds (see closeWithin).
func TestBackgroundCloseDrains(t *testing.T) {
	// The subtest name is kept from when the number of compaction runners
	// was an option.
	t.Run("parallelism=1", func(t *testing.T) {
		base := runtime.NumGoroutine()
		dir := t.TempDir()
		o := smallOpts()
		useFaultFS(o)
		db, err := Open(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		// The writers run until Close turns them away; the parked flush
		// below stops them all first, so they stay near the threshold.
		const writers, threshold = 4, 1500
		acked := make([]int, writers) // writer w's keys [0, acked[w]) were acknowledged
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if err := db.PutAt([]byte(writerKey(w, i)), []byte(writerValue(w, i)), 0); err != nil {
						if err != ErrClosed {
							t.Error(err)
						}
						return
					}
					acked[w] = i + 1
				}
			}(w)
		}
		for db.LastSeq() < threshold {
			time.Sleep(time.Millisecond)
		}
		// Close mid-stream, with the next writer's flush job parked: Close
		// must wait for it, and for any compaction a writer is running.
		b := blockFlushes(t, db)
		b.waitParked(t, nil)
		closed := closeAsync(db)
		select {
		case err := <-closed:
			t.Fatalf("Close returned %v while a flush job was parked", err)
		case <-time.After(50 * time.Millisecond):
		}
		b.release()
		awaitClose(t, closed)
		wg.Wait()
		waitGoroutines(t, base)

		re, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for w := 0; w < writers; w++ {
			total += acked[w]
			for i := 0; i < acked[w]; i++ {
				if v, ok := mustGet(t, re, writerKey(w, i)); !ok || v != writerValue(w, i) {
					t.Fatalf("after reopen, Get(%s) = %q %v", writerKey(w, i), v, ok)
				}
			}
		}
		t.Logf("%d writes acknowledged before Close", total)
		closeWithin(t, re)
		waitGoroutines(t, base)

		// Closing twice is fine; writes after Close fail.
		closeWithin(t, re)
		if err := re.PutAt([]byte("x"), []byte("y"), 0); err != ErrClosed {
			t.Fatalf("Put after Close = %v, want ErrClosed", err)
		}
	})
}

// TestBackgroundConcurrentStress runs writers, point readers, scanners and
// a manual compaction at once — the race-detector workout for the
// MemTable handoff, version install-by-copy, and writer-run jobs.
func TestBackgroundConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
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
				if err := db.PutAt([]byte(k), []byte(fmt.Sprintf("val-%d-%d", w, i)), 0); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if err := db.DeleteAt([]byte(fmt.Sprintf("w%d-key-%05d", w, i/2)), 0); err != nil {
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
				if _, _, err := db.Get([]byte(fmt.Sprintf("w%d-key-%05d", r, i%perW)), nil); err != nil && err != ErrClosed {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					err := db.Scan([]byte("w0"), []byte("w1"), nil, func(_, _ []byte, _ uint64) bool { return true })
					if err != nil && err != ErrClosed {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	// One manual compaction mid-stream races the writers' own jobs.
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

// TestBackgroundCheckpoint takes a checkpoint while concurrent writers
// run flushes and compactions, and verifies the copy opens and contains
// everything acknowledged before the call.
func TestBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)
	const writers, perW = 4, 500
	var acked [writers]atomic.Int64 // writer w's keys [0, acked[w]) were acknowledged
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := db.PutAt([]byte(writerKey(w, i)), []byte(writerValue(w, i)), 0); err != nil {
					t.Error(err)
					return
				}
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	for db.LastSeq() < writers*perW/2 {
		time.Sleep(time.Millisecond)
	}
	var before [writers]int64
	for w := range before {
		before[w] = acked[w].Load()
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := db.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	re, err := Open(ckpt, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < int(before[w]); i++ {
			if v, ok := mustGet(t, re, writerKey(w, i)); !ok || v != writerValue(w, i) {
				t.Fatalf("checkpoint Get(%s) = %q %v", writerKey(w, i), v, ok)
			}
		}
	}
}

// checkSettled fails unless the pipeline is idle: no handoff pending, no
// frozen MemTable, every shape invariant satisfied.
func checkSettled(t *testing.T, db *DB, after string) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.bg.pending != nil || db.imm != nil || db.compactionLevel(db.v) >= 0 {
		t.Fatalf("after %s: pending=%v frozen=%v compaction level=%d",
			after, db.bg.pending != nil, db.imm != nil, db.compactionLevel(db.v))
	}
}

// checkNoMergeGoroutines fails if a handoff's goroutine (see
// freezeMemLocked) or a compaction's merge goroutine (see
// mergeCompaction) is still alive a few seconds after the call that
// installed the handoff returned: a handoff ends with its last job, and a
// job joins its merge stream before it returns.
func checkNoMergeGoroutines(t *testing.T) {
	t.Helper()
	pipeline := []string{
		"created by leveldbpp/internal/lsm.(*DB).freezeMemLocked",
		"created by leveldbpp/internal/lsm.(*DB).mergeCompaction",
	}
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !slices.ContainsFunc(pipeline, func(g string) bool { return strings.Contains(stacks, g) }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a pipeline goroutine outlived its handoff; goroutines:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeterministicModeContract guards the pipeline's contract: every
// version change happens at a freeze, Flush, CompactRange or Close; Put
// returns with at most one handoff pending, and that handoff's goroutine
// applies nothing when it finishes; Flush, CompactRange and Close return
// with no handoff pending and no pipeline goroutine left.
func TestDeterministicModeContract(t *testing.T) {
	log := metrics.NewEventLog(0)
	o := smallOpts()
	o.Events = log
	db, _ := openTestDB(t, o)
	state := func() (*version, *handoff) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.v, db.bg.pending
	}
	settled := func(after string) {
		t.Helper()
		checkSettled(t, db, after)
		checkNoMergeGoroutines(t)
	}
	for i := 0; i < 3000; i++ {
		v0, _ := state()
		freezes := log.Counts()[metrics.EventMemFreeze]
		mustPut(t, db, fmt.Sprintf("key-%05d", i%1100), fmt.Sprintf("value-%05d", i))
		froze := log.Counts()[metrics.EventMemFreeze] > freezes
		v1, h := state()
		if v1 != v0 && !froze {
			t.Fatalf("Put %d changed the version without a freeze", i)
		}
		if froze && h == nil {
			t.Fatalf("Put %d froze the MemTable and left no handoff pending", i)
		}
		if h != nil {
			<-h.done
			if v2, h2 := state(); v2 != v1 || h2 != h {
				t.Fatalf("after Put %d the finished handoff changed the version (%v) or was installed (%v) without a freeze", i, v2 != v1, h2 != h)
			}
		}
		if i%700 == 699 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			settled("Flush")
		}
	}
	if c := log.Counts(); c[metrics.EventFlushDone] == 0 || c[metrics.EventCompactionDone] == 0 || c[metrics.EventTrivialMove] == 0 {
		t.Fatalf("events = %v, want flushes, compactions and trivial moves", c)
	}
	mustPut(t, db, "last", "value")
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	settled("CompactRange")
	mustPut(t, db, "after", "compact range")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, h := state(); h != nil {
		t.Fatal("Close left a handoff pending")
	}
	checkNoMergeGoroutines(t)
}

// drainAudit is an event sink that checks two pipeline invariants as the
// events arrive (the engine emits them under db.mu, so they are ordered):
// every frozen MemTable is flushed exactly once, and two in-flight
// compaction jobs never share a level, nor does a trivial move share one
// with an in-flight job.
type drainAudit struct {
	t *testing.T

	mu          sync.Mutex
	busy        map[int]bool // guarded by mu; levels of in-flight jobs
	frozen      int          // guarded by mu; MemTables frozen, not yet flushing
	freezes     int          // guarded by mu
	flushes     int          // guarded by mu
	flushed     int          // guarded by mu; flush jobs completed
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
	case metrics.EventFlushDone:
		a.flushed++
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
	case metrics.EventTrivialMove:
		if a.busy[e.Level] || a.busy[e.Level+1] {
			a.t.Errorf("trivial move L%d→L%d while a job held one of its levels", e.Level, e.Level+1)
		}
	}
}

// TestDeterministicConcurrentDrains races writers, Flush and two
// CompactRange callers, each of which runs flush and compaction jobs on
// its own goroutine. Each frozen MemTable must be flushed exactly once
// (its freezer owns the flush; a second drain must not flush it again),
// concurrent jobs must never share a level — nothing but the level-pair
// reservation keeps the two CompactRange callers apart — and the result
// must hold every write. Wired into `make lint-race`.
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
				if err := db.PutAt([]byte(k), []byte(fmt.Sprintf("val-%d-%d-padding-padding-padding-padding-padding", w, i)), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
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
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				lo := []byte(fmt.Sprintf("w%d", (i+c)%writers))
				if err := db.CompactRange(lo, nil); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSettled(t, db, "the race")
	checkNoMergeGoroutines(t)

	audit.mu.Lock()
	freezes, flushes, flushed, frozen := audit.freezes, audit.flushes, audit.flushed, audit.frozen
	t.Logf("%d freezes, %d job starts overlapped another job", freezes, audit.overlapping)
	audit.mu.Unlock()
	if freezes == 0 || flushes != freezes || frozen != 0 {
		t.Fatalf("%d MemTables frozen, %d flushes started, %d left frozen", freezes, flushes, frozen)
	}
	if flushed != freezes {
		t.Fatalf("%d flushes done, want %d (one per frozen MemTable)", flushed, freezes)
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
