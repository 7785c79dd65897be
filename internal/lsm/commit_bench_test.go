package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"leveldbpp/internal/wal"
)

// BenchmarkIngestGroupCommit measures the commit path. Under SyncGrouped
// (every acknowledged commit is fsync-covered) it reports the fsyncs/op
// amortization and commits/group that concurrent writers reach, and the
// single-writer cost of a group of one. The SyncOff single writer with a
// Merger is the path the Lazy index table's PUTs take in the paper's
// configuration: no fsync, and a blind insert of a new version of a key
// the MemTable already holds, so the queue's own overhead is the largest
// share it can be.
func BenchmarkIngestGroupCommit(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 550) // paper's average tweet size
	run := func(b *testing.B, writers int, mode wal.SyncMode, newMerger func() Merger) {
		opts := &Options{
			MemTableBytes: 1 << 30, // keep flushes out of the measurement
			SyncMode:      mode,
			NewMerger:     newMerger,
		}
		db, _ := openTestDB(b, opts)
		before := db.Stats().Snapshot()
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Writer w owns ops w, w+writers, w+2*writers, ... so the
				// total is exactly b.N whatever the writer count. Keys
				// repeat every 4096 ops, so most Puts add a version of a
				// key the MemTable holds.
				for i := w; i < b.N; i += writers {
					k := []byte(fmt.Sprintf("w%02d-%09d", w, i%4096))
					if err := db.PutAt(k, val, 0); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		d := db.Stats().Snapshot().Sub(before)
		if d.Commits > 0 {
			b.ReportMetric(d.FsyncsPerCommit(), "fsyncs/op")
			b.ReportMetric(float64(d.Commits)/float64(d.CommitGroups), "commits/group")
		}
	}
	b.Run("writers=1/sync=grouped", func(b *testing.B) { run(b, 1, wal.SyncGrouped, nil) })
	b.Run("writers=8/sync=grouped", func(b *testing.B) { run(b, 8, wal.SyncGrouped, nil) })
	b.Run("writers=1/sync=off/merge", func(b *testing.B) { run(b, 1, wal.SyncOff, newConcatMerger) })
}
