package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"leveldbpp/internal/vfs/vfstest"
	"leveldbpp/internal/wal"
)

func groupOpts() *Options {
	return &Options{
		MemTableBytes: 64 << 20, // keep everything in one MemTable/WAL
		SyncMode:      wal.SyncGrouped,
	}
}

// TestGroupCommitCrashRecovery is the concurrent-writer crash test: N
// goroutines commit 3-record batches through the group path while a
// torn-write file under the WAL tears a write mid-group. After reopening
// the directory, every acknowledged commit must be fully present and
// every commit must be all-or-nothing — a torn group replays none of its
// records.
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	o := groupOpts()
	fs := useFaultFS(o)
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const recsPerCommit = 3
	type ack struct{ writer, op int }
	var ackMu sync.Mutex
	acked := map[ack]bool{}

	// Let ~32 KiB through, then tear. Each commit is ~150 WAL bytes, so
	// plenty of groups succeed before the fault trips mid-frame.
	fs.Tear(activeWAL(db), 32<<10)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; ; op++ {
				var b Batch
				for r := 0; r < recsPerCommit; r++ {
					b.PutNoCopy(
						[]byte(fmt.Sprintf("w%02d-op%05d-r%d", w, op, r)),
						[]byte(fmt.Sprintf("value-%02d-%05d-%d", w, op, r)))
				}
				if err := db.ApplyAt(&b, 0, nil); err != nil {
					if !errors.Is(err, vfstest.ErrTorn) {
						t.Errorf("writer %d: unexpected error %v", w, err)
					}
					return
				}
				ackMu.Lock()
				acked[ack{w, op}] = true
				ackMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no commits were acknowledged before the injected crash")
	}
	// Simulate the crash: abandon the handle without closing (Close would
	// fail on the poisoned writer anyway; the torn file on disk is the
	// artifact under test). Table handles: none (nothing flushed).

	re, err := Open(dir, &Options{MemTableBytes: 64 << 20})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()

	present := func(w, op, r int) bool {
		_, ok, err := re.Get([]byte(fmt.Sprintf("w%02d-op%05d-r%d", w, op, r)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	survived := 0
	for w := 0; w < writers; w++ {
		for op := 0; ; op++ {
			n := 0
			for r := 0; r < recsPerCommit; r++ {
				if present(w, op, r) {
					n++
				}
			}
			if n == 0 && !acked[ack{w, op}] {
				break // past this writer's last surviving commit
			}
			if n != 0 && n != recsPerCommit {
				t.Errorf("writer %d op %d: %d of %d records replayed (torn group)", w, op, n, recsPerCommit)
			}
			if acked[ack{w, op}] && n != recsPerCommit {
				t.Errorf("writer %d op %d: acknowledged but only %d records replayed", w, op, n)
			}
			if n == recsPerCommit {
				survived++
			}
		}
	}
	if survived < len(acked) {
		t.Errorf("%d commits survived, %d were acknowledged", survived, len(acked))
	}
	// Leader passes serialize, so durable frames are a seq-ordered prefix:
	// replay-derived lastSeq must be exactly the survivors' records.
	if want := uint64(survived * recsPerCommit); re.LastSeq() != want {
		t.Errorf("LastSeq() = %d, want %d", re.LastSeq(), want)
	}
}

// TestGroupCommitConcurrentStress pounds the group path with concurrent
// writers that run the flushes and compactions their writes trigger, and
// verifies every write, before and after reopen.
func TestGroupCommitConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				if err := db.PutAt([]byte(k), []byte("val-"+k), 0); err != nil {
					t.Errorf("Put(%s): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(d *DB) {
		t.Helper()
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i += 13 {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				v, ok, err := d.Get([]byte(k), nil)
				if err != nil || !ok || string(v) != "val-"+k {
					t.Fatalf("Get(%s) = %q %v %v", k, v, ok, err)
				}
			}
		}
	}
	check(db)
	cs := db.Stats().Snapshot()
	if cs.Commits != writers*perWriter {
		t.Errorf("Commits = %d, want %d", cs.Commits, writers*perWriter)
	}
	if cs.CommitGroups > cs.Commits || cs.CommitGroups == 0 {
		t.Errorf("CommitGroups = %d (commits %d)", cs.CommitGroups, cs.Commits)
	}
	closeWithin(t, db)

	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re)
}

// TestGroupCommitWALEquivalence runs a single-writer workload — puts,
// re-puts of the same keys, deletes, batches — and pins the active WAL
// segment to the bytes the engine wrote on its inline (pre-queue) commit
// path into the single legacy WAL file. A group of one must still produce
// exactly the seed frames, so replay (and every replay-derived invariant)
// is unchanged. Puts are blind, so a Merger leaves the log alone.
func TestGroupCommitWALEquivalence(t *testing.T) {
	const parentSHA = "1c678f3c7d28dafc6253690989074968810c3f282e4dbb52bc99df44f2b30ddf"
	db, err := Open(t.TempDir(), &Options{MemTableBytes: 64 << 20, NewMerger: newConcatMerger})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i%50))
		if i%17 == 0 {
			if err := db.DeleteAt(k, 0); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.PutAt(k, []byte(fmt.Sprintf("frag-%03d", i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%23 == 0 {
			var b Batch
			b.PutNoCopy([]byte(fmt.Sprintf("batch-%03d", i)), []byte("bv"))
			b.Delete(k)
			if err := db.ApplyAt(&b, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	walFile := activeWAL(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != parentSHA {
		t.Fatalf("WAL (%d bytes) differs from the parent commit's: sha256 %s, want %s", len(raw), got, parentSHA)
	}
}

// TestGroupCommitLeaderHandoff forces the promoted-follower path: one
// writer holds leadership in a slow commit while others enqueue, and the
// retiring leader must promote the next waiter, not strand it.
func TestGroupCommitLeaderHandoff(t *testing.T) {
	opts := groupOpts()
	opts.SyncMode = wal.SyncOff
	db, _ := openTestDB(t, opts)
	db.commitQ.maxWaiters = 2 // force multiple groups per burst

	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("h%02d-%04d", w, i)
				if err := db.PutAt([]byte(k), []byte(k), 0); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs := db.Stats().Snapshot()
	if cs.Commits != writers*200 {
		t.Fatalf("Commits = %d, want %d", cs.Commits, writers*200)
	}
	if hist := db.GroupSizeHist(); hist.Count() != cs.CommitGroups {
		t.Fatalf("group-size histogram has %d observations, want %d groups", hist.Count(), cs.CommitGroups)
	}
	if cs.WALFsyncs != 0 {
		t.Fatalf("WALFsyncs = %d under SyncOff, want 0", cs.WALFsyncs)
	}
}

// TestUncontendedCommitAllocations holds a lone writer's commit — a
// group of one through the queue — to the allocations the parent
// commit's inline write path made per Put, Delete and ApplyAt. The queue's
// own bookkeeping (pendingCommit, wakeup channels, group slice) must cost
// nothing when no other writer is queued. A Merger runs only at flush and
// compaction, so it cannot change these counts.
func TestUncontendedCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	val := bytes.Repeat([]byte("v"), 550)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	// The inline path's counts at the parent commit.
	for _, c := range []struct {
		merge                       bool
		put, del, apply1, applyPair float64
	}{
		{merge: false, put: 6, del: 5, apply1: 4, applyPair: 7},
		{merge: true, put: 6, del: 5, apply1: 4, applyPair: 7},
	} {
		opts := &Options{MemTableBytes: 1 << 30}
		if c.merge {
			opts.NewMerger = newConcatMerger
		}
		db, _ := openTestDB(t, opts)
		i := 0
		var one, pair Batch
		one.PutNoCopy(keys[1], val)
		pair.PutNoCopy(keys[2], val)
		pair.Delete(keys[3])
		for _, op := range []struct {
			name string
			want float64
			fn   func() error
		}{
			{"Put", c.put, func() error { i++; return db.PutAt(keys[i%len(keys)], val, 0) }},
			{"Delete", c.del, func() error { i++; return db.DeleteAt(keys[i%len(keys)], 0) }},
			{"Apply/1", c.apply1, func() error { return db.ApplyAt(&one, 0, nil) }},
			{"Apply/2", c.applyPair, func() error { return db.ApplyAt(&pair, 0, nil) }},
		} {
			got := testing.AllocsPerRun(500, func() {
				if err := op.fn(); err != nil {
					t.Fatal(err)
				}
			})
			if got > op.want {
				t.Errorf("merge=%v %s: %v allocs per commit, want at most %v", c.merge, op.name, got, op.want)
			}
		}
	}
}

// TestCommitAtSeq commits records at caller-given seqs: a PutAt, ApplyAt
// or DeleteAt skips the seqs between LastSeq and its own, one at or below
// LastSeq fails alone, and a group whose members skipped seqs replays
// every record at its seq. The group is built by hand, so its members are
// one leader pass: a preset member, an assigned one, one refused, and a
// preset batch.
func TestCommitAtSeq(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, groupOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutAt([]byte("a"), []byte("a10"), 10); err != nil {
		t.Fatal(err)
	}
	if err := db.PutAt([]byte("b"), []byte("b11"), 0); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.PutNoCopy([]byte("c"), []byte("c20"))
	b.PutNoCopy([]byte("d"), []byte("d21"))
	if err := db.ApplyAt(&b, 20, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteAt([]byte("a"), 21); !errors.Is(err, ErrSeqNotAbove) {
		t.Fatalf("DeleteAt(21) after LastSeq 21: %v, want %v", err, ErrSeqNotAbove)
	}
	// member commits key at preset (0: the next seq), valued key∥want.
	member := func(key string, preset, want uint64) *pendingCommit {
		pc := &pendingCommit{}
		pc.one[0] = wal.Record{Kind: 1, Key: []byte(key), Value: []byte(fmt.Sprintf("%s%d", key, want)), Seq: preset}
		pc.records = pc.one[:]
		return pc
	}
	batch := &pendingCommit{records: []wal.Record{
		{Kind: 1, Key: []byte("h"), Value: []byte("h40"), Seq: 40},
		{Kind: 0, Key: []byte("c")},
	}}
	group := []*pendingCommit{member("e", 30, 30), member("f", 0, 31), member("g", 25, 0), batch}
	db.mu.Lock()
	err = db.commitGroupLocked(group)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{30, 31, 0, 40} {
		pc := group[i]
		if (pc.err != nil) != (want == 0) {
			t.Errorf("member %d: err %v; want seq %d", i, pc.err, want)
		} else if pc.err == nil && pc.records[0].Seq != want {
			t.Errorf("member %d: first record at seq %d, want %d", i, pc.records[0].Seq, want)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, groupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.LastSeq(); got != 41 {
		t.Fatalf("LastSeq after replay = %d, want 41", got)
	}
	want := map[string]uint64{"a": 10, "b": 11, "d": 21, "e": 30, "f": 31, "h": 40}
	got := map[string]uint64{}
	if err := db.Scan(nil, nil, nil, func(k, v []byte, seq uint64) bool {
		got[string(k)] = seq
		if string(v) != fmt.Sprintf("%s%d", k, seq) {
			t.Errorf("%s@%d = %q", k, seq, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed seqs %v, want %v", got, want)
	}
	db.AdvanceSeq(50)
	db.AdvanceSeq(45)
	if err := db.PutAt([]byte("i"), nil, 0); err != nil || db.LastSeq() != 51 {
		t.Fatalf("Put after AdvanceSeq(50): LastSeq %d, %v", db.LastSeq(), err)
	}
}
