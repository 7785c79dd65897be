package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"leveldbpp/internal/vfs/vfstest"
)

// TestCreateFaultSweep fails the N-th file create of a Lazy and of a
// Composite database — across the primary, the index tables and the
// descriptor — for every N of a short workload of PUTs, DELs, a Flush and
// a CompactRange. The injected error must reach a caller. After a reopen,
// GET must show every acked write as a map model predicts (a key whose
// last write failed may show that write or the state before it), and
// LOOKUP must return exactly the keys GET shows under each value.
func TestCreateFaultSweep(t *testing.T) {
	for _, kind := range []IndexKind{IndexLazy, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			creates := runFaultSweep(t, kind, 0)
			if creates < 10 {
				t.Fatalf("the workload made %d creates, want a flush and a compaction's worth", creates)
			}
			for n := 1; n <= creates; n++ {
				runFaultSweep(t, kind, n)
			}
		})
	}
}

// runFaultSweep runs the workload with the failN-th create failing (none
// for 0), checks the reopened database, and returns how many creates the
// run made.
func runFaultSweep(t *testing.T, kind IndexKind, failN int) int {
	t.Helper()
	opts := smallOptions(kind)
	opts.Attrs = []string{"UserID"}
	opts.MemTableBytes = 2 << 10
	opts.L0CompactionTrigger = 2
	errInjected := errors.New("injected create failure")
	var creates atomic.Int64
	var fired atomic.Bool
	fs := vfstest.New()
	fs.SetHook(func(op vfstest.Op, _ string) error {
		if op == vfstest.OpCreate && int(creates.Add(1)) == failN {
			fired.Store(true)
			return errInjected
		}
		return nil
	})
	dir, errs := t.TempDir(), []error(nil)
	// allowed[key] lists the users GET may show for key, "" for none: the
	// acked state, then the writes that failed after it.
	allowed := map[string][]string{}
	write := func(key, user string, err error) {
		if err == nil {
			allowed[key] = []string{user}
			return
		}
		errs = append(errs, err)
		if allowed[key] == nil {
			allowed[key] = []string{""}
		}
		allowed[key] = append(allowed[key], user)
	}
	if db, err := open(dir, opts, fs); err != nil {
		errs = append(errs, err)
	} else {
		rng := rand.New(rand.NewSource(int64(kind)))
		for i := 0; i < 160; i++ {
			key := fmt.Sprintf("k%02d", rng.Intn(40))
			switch {
			case i == 80:
				errs = append(errs, db.Flush())
			case rng.Intn(5) == 0:
				write(key, "", db.Delete(key))
			default:
				user := fmt.Sprintf("u%d", rng.Intn(4))
				write(key, user, db.Put(key, tweetDoc(user, i, "sweep")))
			}
		}
		errs = append(errs, db.CompactRange("", ""), db.Close())
	}
	err := errors.Join(errs...)
	if fired.Load() != errors.Is(err, errInjected) {
		t.Fatalf("create %d: injected %v, callers saw %v", failN, fired.Load(), err)
	}

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("create %d: reopen: %v", failN, err)
	}
	defer db.Close()
	byUser := map[string][]string{}
	for key, users := range allowed {
		doc, _, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		var slot [1]attrSlot
		scanAttrs(doc, opts.Attrs, slot[:])
		user := string(slot[0].val)
		if !slices.Contains(users, user) {
			t.Fatalf("create %d: after the reopen %s is under %q, want one of %q", failN, key, user, users)
		}
		byUser[user] = append(byUser[user], key)
	}
	for u := 0; u < 4; u++ {
		user := fmt.Sprintf("u%d", u)
		got, err := db.Lookup("UserID", user, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := keysOf(got)
		slices.Sort(keys)
		slices.Sort(byUser[user])
		if !slices.Equal(keys, byUser[user]) {
			t.Fatalf("create %d: LOOKUP %s = %v, GET shows %v", failN, user, keys, byUser[user])
		}
	}
	return int(creates.Load())
}
