package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentChunkedValidation runs LOOKUP and RANGELOOKUP readers,
// whose validation reads each chunk of candidates under one primary read
// lock, while a background-mode writer updates and deletes documents and
// its flushes and compactions replace the tables under them. Every answer
// must be well formed: at most K entries, newest first, no key twice, and
// every document carrying a value in the queried range.
func TestConcurrentChunkedValidation(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOptions(kind)
			opts.BackgroundCompaction = true
			db, err := Open(t.TempDir(), opts)
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

// TestConcurrentModeEquivalence runs the same randomized workload through
// a deterministic-mode DB and a background-mode DB for every index kind,
// comparing every LOOKUP and RANGELOOKUP answer. Who runs the flush and
// compaction jobs must change scheduling only, never results (the
// determinism contract the paper experiments depend on).
func TestConcurrentModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence soak skipped in -short mode")
	}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			inlineOpts := smallOptions(kind)
			bgOpts := smallOptions(kind)
			bgOpts.BackgroundCompaction = true

			inline, err := Open(t.TempDir(), inlineOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer inline.Close()
			bg, err := Open(t.TempDir(), bgOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer bg.Close()

			rng := rand.New(rand.NewSource(4242))
			const users = 20
			nextKey := 0
			apply := func(op func(db *DB) error) {
				if err := op(inline); err != nil {
					t.Fatal(err)
				}
				if err := op(bg); err != nil {
					t.Fatal(err)
				}
			}
			check := func(tag string) {
				for i := 0; i < 8; i++ {
					user := fmt.Sprintf("u%03d", rng.Intn(users))
					for _, k := range []int{1, 5, 0} {
						a, err1 := inline.Lookup("UserID", user, k)
						b, err2 := bg.Lookup("UserID", user, k)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s lookup: %v %v", tag, err1, err2)
						}
						if !sameKeys(keysOf(a), keysOf(b)) {
							t.Fatalf("%s user=%s k=%d diverged:\ninline %v\nbg     %v",
								tag, user, k, keysOf(a), keysOf(b))
						}
					}
					lo := fmt.Sprintf("u%03d", rng.Intn(users))
					hi := fmt.Sprintf("u%03d", rng.Intn(users))
					if lo > hi {
						lo, hi = hi, lo
					}
					a, err1 := inline.RangeLookup("UserID", lo, hi, 10)
					b, err2 := bg.RangeLookup("UserID", lo, hi, 10)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s range: %v %v", tag, err1, err2)
					}
					if !sameKeys(keysOf(a), keysOf(b)) {
						t.Fatalf("%s range [%s,%s] diverged:\ninline %v\nbg     %v",
							tag, lo, hi, keysOf(a), keysOf(b))
					}
				}
			}

			for round := 0; round < 3; round++ {
				for i := 0; i < 900; i++ {
					switch rng.Intn(10) {
					case 0: // delete
						if nextKey > 0 {
							key := fmt.Sprintf("t%06d", rng.Intn(nextKey))
							apply(func(db *DB) error { return db.Delete(key) })
						}
					case 1: // update existing
						if nextKey > 0 {
							key := fmt.Sprintf("t%06d", rng.Intn(nextKey))
							user := fmt.Sprintf("u%03d", rng.Intn(users))
							doc := tweetDoc(user, nextKey, "equiv update")
							apply(func(db *DB) error { return db.Put(key, doc) })
						}
					default: // fresh put
						key := fmt.Sprintf("t%06d", nextKey)
						user := fmt.Sprintf("u%03d", rng.Intn(users))
						doc := tweetDoc(user, nextKey, "equiv put with filler body text")
						apply(func(db *DB) error { return db.Put(key, doc) })
						nextKey++
					}
				}
				// Mid-pipeline check: the bg DB may hold a frozen MemTable
				// and a compaction in flight right now.
				check(fmt.Sprintf("round %d live", round))
				apply(func(db *DB) error { return db.Flush() })
				check(fmt.Sprintf("round %d flushed", round))
			}

			for _, db := range []*DB{inline, bg} {
				reports, err := db.Verify()
				if err != nil {
					t.Fatal(err)
				}
				for name, rep := range reports {
					if !rep.OK() {
						t.Fatalf("audit %s: %v", name, rep.Problems)
					}
				}
			}
		})
	}
}
