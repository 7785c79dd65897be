package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
)

// TestConcurrentChunkedValidation runs LOOKUP and RANGELOOKUP readers,
// whose validation reads each chunk of candidates under one primary read
// lock, while a writer updates and deletes documents and the flushes and
// compactions it runs replace the tables under them. Embedded readers
// walk the MemTable B-trees, and their per-node max seqs, that the writer
// grows. Every answer must be well formed: at most K entries, newest
// first, no key twice, and every document carrying a value in the queried
// range.
func TestConcurrentChunkedValidation(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite, IndexEmbedded} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(t.TempDir(), smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const users, writes = 8, 600
			check := func(what, attr, lo, hi string, k int, out []Entry, err error) bool {
				if err != nil {
					t.Errorf("%s: %v", what, err)
					return false
				}
				seen := map[string]bool{}
				for i, e := range out {
					if seen[e.Key] || i > 0 && e.Seq >= out[i-1].Seq || !attrInRange(e.Value, attr, lo, hi) {
						t.Errorf("%s: entry %d %s (seq %d) repeated, out of order or stale: %s", what, i, e.Key, e.Seq, e.Value)
						return false
					}
					seen[e.Key] = true
				}
				if k > 0 && len(out) > k {
					t.Errorf("%s: %d results, K = %d", what, len(out), k)
					return false
				}
				return true
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for ok := true; ok; {
						select {
						case <-stop:
							return
						default:
						}
						user := fmt.Sprintf("u%02d", rng.Intn(users))
						k := []int{1, 10, 0}[rng.Intn(3)]
						out, err := db.Lookup("UserID", user, k)
						ok = check("lookup "+user, "UserID", user, user, k, out, err)
						lo := fmt.Sprintf("%010d", rng.Intn(writes))
						hi := fmt.Sprintf("%010d", rng.Intn(writes))
						if lo > hi {
							lo, hi = hi, lo
						}
						out, err = db.RangeLookup("CreationTime", lo, hi, k)
						ok = ok && check("rangelookup ["+lo+", "+hi+"]", "CreationTime", lo, hi, k, out, err)
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(int64(kind)))
			for i := 0; i < writes; i++ {
				var err error
				switch r := rng.Intn(10); {
				case r == 0 && i > 0:
					err = db.Delete(fmt.Sprintf("t%05d", rng.Intn(i)))
				case r < 3 && i > 0:
					err = db.Put(fmt.Sprintf("t%05d", rng.Intn(i)), tweetDoc(fmt.Sprintf("u%02d", rng.Intn(users)), i, "updated"))
				default:
					err = db.Put(fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", rng.Intn(users)), i, "fresh"))
				}
				if err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestTracedConcurrentWorkload runs writers and readers at once with every
// operation traced: Lazy, whose writes serialize on writeMu and read
// their old documents under IOOnly, and Embedded, whose writers meet in
// the primary's commit queue as followers and promoted leaders (the
// commit_wait phase). The ring holds every trace: each one, compactions'
// included, must name only known phases and cover a share of its time in
// (0, 1].
func TestTracedConcurrentWorkload(t *testing.T) {
	for _, kind := range []IndexKind{IndexLazy, IndexEmbedded} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOptions(kind)
			opts.Tracer = metrics.NewTracer(1, 1<<12)
			opts.SyncMode = wal.SyncGrouped
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const writers, writes, reads, users = 3, 200, 300, 8
			stop := make(chan struct{})
			var readers, wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for i := 0; i < reads; i++ {
						select {
						case <-stop:
							return
						default:
						}
						user := fmt.Sprintf("u%02d", rng.Intn(users))
						lo := fmt.Sprintf("%010d", rng.Intn(writes))
						_, _, gerr := db.Get(fmt.Sprintf("w0-%05d", rng.Intn(writes)))
						_, lerr := db.Lookup("UserID", user, 10)
						_, rerr := db.RangeLookup("CreationTime", lo, lo+"9", 10)
						if err := errors.Join(gerr, lerr, rerr); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 10))
					for i := 0; i < writes; i++ {
						key := fmt.Sprintf("w%d-%05d", w, rng.Intn(i+1))
						var err error
						if i%10 == 9 {
							err = db.Delete(key)
						} else {
							err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(users)), i, "traced"))
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			readers.Wait()

			recs := db.Tracer().Slow()
			ops, phases := map[string]int{}, map[string]int{}
			for _, rec := range recs {
				ops[rec.Op]++
				if rec.Coverage <= 0 || rec.Coverage > 1 {
					t.Fatalf("%s trace covers %.4f of its time: %+v", rec.Op, rec.Coverage, rec)
				}
				for _, p := range rec.Phases {
					if p.Phase == "unknown" {
						t.Fatalf("unnamed phase in %s trace: %+v", rec.Op, rec)
					}
					phases[p.Phase]++
				}
			}
			if ops["put"]+ops["delete"] != writers*writes || len(recs) == 1<<12 {
				t.Fatalf("the ring kept %d of %d writes in %d traces", ops["put"]+ops["delete"], writers*writes, len(recs))
			}
			t.Logf("traces per op %v; phases seen %v", ops, phases)
		})
	}
}
