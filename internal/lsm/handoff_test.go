package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leveldbpp/internal/vfs/vfstest"
)

// pending reports whether db has a handoff that is not installed yet.
func pending(db *DB) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.bg.pending != nil
}

// copyDir copies every file of dir into a fresh directory and returns it:
// the image a crash would leave at that instant, provided nothing writes
// to dir meanwhile.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestBackgroundHandoffCrashImage copies the directory while a handoff is
// parked with its flush's table and its compaction's first table written
// and neither installed, and the writer has moved on to the next
// MemTable. Reopening the copy must delete both tables as orphans, replay
// the frozen MemTable from its WAL segment and serve every acknowledged
// write.
func TestBackgroundHandoffCrashImage(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	fs := useFaultFS(o)
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, db)

	want := map[string]string{}
	i := 0
	put := func() {
		k, v := shuffledKey("key-%05d", i, 4000), fmt.Sprintf("value-%05d-%040d", i, i)
		mustPut(t, db, k, v)
		want[k] = v
		i++
	}
	// Level 0 one table short of its trigger, so the next flush compacts.
	for f := 0; f < o.L0CompactionTrigger-1; f++ {
		for n := 0; n < 40; n++ {
			put()
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(levelsOf(db)[0]); n != o.L0CompactionTrigger-1 {
		t.Fatalf("%d level-0 tables, want %d", n, o.L0CompactionTrigger-1)
	}

	// Only the next handoff's goroutine rolls tables while it is armed.
	rolls := 0
	parked, release := fs.Park(func(op vfstest.Op, path string) bool {
		if !tableSync(op, path) {
			return false
		}
		rolls++
		return rolls == 2
	})
	for !pending(db) {
		put()
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the handoff never rolled its compaction's first table")
	}
	for n := 0; n < 20; n++ { // into the live MemTable and its fresh segment
		put()
	}
	db.mu.RLock() // no install while copying
	frozenWALs := slices.Clone(db.immWALs)
	crash := copyDir(t, dir)
	db.mu.RUnlock()
	release()

	if orphans := orphanTables(t, crash); len(orphans) != 2 {
		t.Fatalf("crash image holds unreferenced tables %v, want the flush's and the compaction's", orphans)
	}
	for _, p := range frozenWALs {
		if _, err := os.Stat(filepath.Join(crash, filepath.Base(p))); err != nil {
			t.Fatalf("crash image lacks the frozen MemTable's WAL segment: %v", err)
		}
	}
	re, err := Open(crash, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, re)
	if orphans := orphanTables(t, crash); len(orphans) != 0 {
		t.Fatalf("tables %v survived the reopen", orphans)
	}
	for k, v := range want {
		if got, ok := mustGet(t, re, k); !ok || got != v {
			t.Fatalf("after the crash, Get(%s) = %q %v, want %q", k, got, ok, v)
		}
	}
}

// writeUntilHandoff writes shuffled keys into db, at least n of them and
// then until a freeze has handed off a flush, records each acknowledged
// write in want, and waits for that handoff's goroutine, as Stats does,
// without installing it: the window in which the handoff's MANIFEST is
// written and its version is not installed yet.
func writeUntilHandoff(t *testing.T, db *DB, n int, want map[string]string) *handoff {
	t.Helper()
	for i := 0; i < n || !pending(db); i++ {
		k, v := shuffledKey("key-%05d", i, 4000), fmt.Sprintf("value-%05d-%040d", i, i)
		mustPut(t, db, k, v)
		want[k] = v
	}
	db.mu.RLock()
	h := db.bg.pending
	db.mu.RUnlock()
	<-h.done
	return h
}

// TestHandoffWindow holds the window between a finished handoff and its
// install. The handoff's goroutine has written the MANIFEST of its staged
// version, so a crash image reopens at that version and a Checkpoint,
// which writes the installed version's manifest, at the installed one;
// both serve every acknowledged write. A failed MANIFEST write changes
// nothing until the next install, which reports it and installs nothing.
// Wired into `make lint-race`.
func TestHandoffWindow(t *testing.T) {
	t.Run("CrashImageAndCheckpoint", func(t *testing.T) {
		db, dir := openTestDB(t, smallOpts())
		want := map[string]string{}
		h := writeUntilHandoff(t, db, 600, want)
		db.mu.RLock() // no install while copying
		staged, installed := versionNums(h.v), versionNums(db.v)
		crash := copyDir(t, dir)
		db.mu.RUnlock()
		if reflect.DeepEqual(staged, installed) {
			t.Fatalf("the handoff staged no change to %v", installed)
		}
		if got := manifestNums(t, dir); !reflect.DeepEqual(got, staged) {
			t.Fatalf("MANIFEST holds %v, want the staged version %v", got, staged)
		}
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		if err := db.Checkpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name, dir string
			want      [][]uint64
		}{{"crash image", crash, staged}, {"checkpoint", ckpt, installed}} {
			re, err := Open(c.dir, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if got := tableNums(re); !reflect.DeepEqual(got, c.want) {
				t.Errorf("reopened %s holds %v, want %v", c.name, got, c.want)
			}
			checkContents(t, re, want, "reopened "+c.name)
			closeWithin(t, re)
		}
	})
	t.Run("ManifestWriteFails", func(t *testing.T) {
		db, dir := openTestDB(t, smallOpts())
		want := map[string]string{}
		writeUntilHandoff(t, db, 200, want)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		unblock := blockManifest(t, dir)
		h := writeUntilHandoff(t, db, 0, want)
		if h.manifestErr == nil {
			t.Fatal("the handoff wrote its MANIFEST through a blocked temp file")
		}
		if err := db.Health(); err != nil {
			t.Fatalf("Health = %v before the install", err)
		}
		if mem, disk := tableNums(db), manifestNums(t, dir); !reflect.DeepEqual(mem, disk) {
			t.Fatalf("before the install: version holds %v, MANIFEST %v", mem, disk)
		}
		if err := db.Flush(); err != h.manifestErr {
			t.Fatalf("Flush = %v, want the handoff's %v", err, h.manifestErr)
		}
		if err := db.Health(); err != h.manifestErr {
			t.Fatalf("Health = %v after the install, want %v", err, h.manifestErr)
		}
		checkMatchesDisk(t, db, dir, "after the install")
		checkContents(t, db, want, "after the install")
		unblock()
		closeWithin(t, db)
		re, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer closeWithin(t, re)
		checkContents(t, re, want, "reopened")
	})
}

// TestCloseWaitsForJobsWhenPoisoned parks a CompactRange's compaction at
// its first output table, then poisons the pipeline as a failed flush
// does. Close must still wait for the compaction: once Close has
// returned, nothing may write the MANIFEST or add or unlink a table.
func TestCloseWaitsForJobsWhenPoisoned(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	fs := useFaultFS(o)
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		mustPut(t, db, shuffledKey("key-%05d", i, 120), fmt.Sprintf("value-%05d", i))
		if i%40 == 39 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	parked, release := fs.Park(tableSync)
	compacted := make(chan error, 1)
	go func() { compacted <- db.CompactRange(nil, nil) }()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("CompactRange rolled no output table")
	}
	db.mu.Lock()
	db.bg.err = errors.New("injected flush failure")
	db.mu.Unlock()

	// dirState is the MANIFEST and the table files on disk.
	dirState := func() string {
		m, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return string(m) + strings.Join(tableFiles(t, dir), ",")
	}
	closed := closeAsync(db)
	select {
	case <-closed:
		t.Error("Close returned while a compaction was merging")
		before := dirState()
		release()
		<-compacted
		if dirState() != before {
			t.Error("the compaction changed the directory after Close returned")
		}
		return
	case <-time.After(100 * time.Millisecond):
	}
	release()
	awaitClose(t, closed)
	before := dirState()
	<-compacted
	if dirState() != before {
		t.Error("the compaction changed the directory after Close returned")
	}
	checkNoMergeGoroutines(t)
}

// TestBackgroundHandoffRaces runs a writer, which keeps a handoff pending
// from its first freeze on, against point, sorted and range readers,
// Stats, Checkpoint, Flush and CompactRange, then closes the DB under the
// writer. Each checkpoint must hold what was acknowledged before it, the
// reopened directory every acknowledged write, and no pipeline goroutine
// may outlive Close. Wired into `make lint-race`.
func TestBackgroundHandoffRaces(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64 // keys [0, acked) are acknowledged
	key := func(i int) []byte { return []byte(writerKey(0, i)) }
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for i := 0; ; i++ {
			if err := db.PutAt(key(i), []byte(writerValue(0, i)), 0); err != nil {
				if err != ErrClosed {
					t.Error(err)
				}
				return
			}
			acked.Store(int64(i + 1))
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ackedKey := func(i int) (int, bool) {
		n := int(acked.Load())
		return i * 7919 % max(n, 1), n > 0
	}
	loop(func(i int) error {
		k, ok := ackedKey(i)
		if !ok {
			return nil
		}
		if v, found := mustGet(t, db, string(key(k))); !found || v != writerValue(0, k) {
			return fmt.Errorf("Get(%s) = %q %v", key(k), v, found)
		}
		return nil
	})
	loop(func(i int) error {
		k, ok := ackedKey(i)
		if !ok {
			return nil
		}
		keys := [][]byte{key(k / 2), key(k)}
		if k/2 == k {
			keys = keys[1:]
		}
		return db.GetSorted(keys, nil, func(j int, v []byte, found bool) {
			if !found {
				t.Errorf("GetSorted missed %s", keys[j])
			}
		})
	})
	loop(func(i int) error {
		// Read acked before the scan: a key acknowledged while the scan
		// runs may or may not be in it.
		whole := int64(i%500+20) <= acked.Load()
		n := 0
		err := db.Scan(key(i%500), key(i%500+20), nil, func(_, _ []byte, _ uint64) bool { n++; return true })
		if err == nil && whole && n != 20 {
			err = fmt.Errorf("Scan from %s saw %d keys, want 20", key(i%500), n)
		}
		return err
	})
	loop(func(int) error {
		db.Stats().Snapshot()
		return nil
	})
	loop(func(int) error {
		time.Sleep(3 * time.Millisecond)
		return db.Flush()
	})
	loop(func(int) error {
		time.Sleep(7 * time.Millisecond)
		return db.CompactRange(key(100), key(900))
	})
	type checkpoint struct {
		dir   string
		acked int
	}
	var ckpts []checkpoint
	for len(ckpts) < 4 {
		time.Sleep(15 * time.Millisecond)
		c := checkpoint{dir: filepath.Join(t.TempDir(), "ckpt"), acked: int(acked.Load())}
		if err := db.Checkpoint(c.dir); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, c)
	}
	for acked.Load() < 3000 && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	closeWithin(t, db) // the writer is still writing
	<-wrote
	checkNoMergeGoroutines(t)
	waitGoroutines(t, base)

	check := func(dir string, n int, what string) {
		t.Helper()
		re, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer closeWithin(t, re)
		for i := 0; i < n; i++ {
			if v, ok, err := re.Get(key(i), nil); err != nil || !ok || !bytes.Equal(v, []byte(writerValue(0, i))) {
				t.Fatalf("%s: Get(%s) = %q %v %v", what, key(i), v, ok, err)
			}
		}
		if rep, err := re.Verify(); err != nil || !rep.OK() {
			t.Fatalf("%s: verify: %v %v", what, err, rep.Problems)
		}
	}
	for j, c := range ckpts {
		check(c.dir, c.acked, fmt.Sprintf("checkpoint %d", j))
	}
	check(dir, int(acked.Load()), "reopen")
}

// TestWALRotationFailureSticky makes the next WAL segment's path a
// directory, so the freeze that would open it fails. The commit that
// filled the MemTable reports the failure; every later commit and Flush
// must return it too (not append to a writer that is gone), reads keep
// answering, and Close returns.
func TestWALRotationFailureSticky(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "first", "value")
	db.mu.RLock()
	next := walSegmentPath(dir, db.walSeq+1)
	db.mu.RUnlock()
	if err := os.Mkdir(next, 0o755); err != nil {
		t.Fatal(err)
	}
	var failed error
	for i := 0; failed == nil; i++ {
		if i == 10000 {
			t.Fatal("no freeze opened the next WAL segment")
		}
		failed = db.PutAt([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 100), 0)
	}
	for i := 0; i < 3; i++ {
		if err := db.PutAt([]byte("after"), []byte("x"), 0); !errors.Is(err, failed) {
			t.Fatalf("Put after the failed rotation = %v, want the sticky %v", err, failed)
		}
	}
	if err := db.Flush(); !errors.Is(err, failed) {
		t.Fatalf("Flush after the failed rotation = %v, want the sticky %v", err, failed)
	}
	if err := db.Health(); !errors.Is(err, failed) {
		t.Fatalf("Health = %v, want %v", err, failed)
	}
	if v, ok, err := db.Get([]byte("first"), nil); err != nil || !ok || string(v) != "value" {
		t.Fatalf("Get(first) = %q, %v, %v", v, ok, err)
	}
	closeWithin(t, db)
}
