package core

import (
	"fmt"
	"testing"
)

// TestWarmReadAllocations pins what warm reads on a settled Lazy tree
// allocate to what they allocated when validation ran one primary GET per
// candidate: a LOOKUP and a RANGELOOKUP at K = 10, and a primary-table GET
// that hits a table. Chunked validation must not cost more. The limits
// fell by one allocation per MemTable probe when the probe stopped
// building its seek key on the heap: every validity check and GET asks
// the empty live MemTable first. The RANGELOOKUP's limit is what it makes
// since its table units became block units, which open fewer fragments.
func TestWarmReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops decoders at random")
	}
	db := openGolden(t, IndexLazy)
	embedded := openGolden(t, IndexEmbedded)
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"embedded lookup", 41, func() error {
			_, err := embedded.Lookup("UserID", "u01", 10)
			return err
		}},
		{"lookup", 38, func() error {
			_, err := db.Lookup("UserID", "u01", 10)
			return err
		}},
		{"rangelookup", 54, func() error {
			_, err := db.RangeLookup("CreationTime", "0000000000", "0000000500", 10)
			return err
		}},
		{"primary get", 2, func() error {
			_, ok, err := db.primary.Get([]byte("t00042"), nil)
			if err == nil && !ok {
				t.Fatal("t00042 not found")
			}
			return err
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocations", c.name, got)
		if got > c.max {
			t.Errorf("warm %s allocates %.1f, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestEmbeddedMemReadAllocations: a K=10 Embedded LOOKUP of one user and
// RANGELOOKUP over every creation time, read from an unflushed MemTable,
// allocate as much when it holds 4 000 postings per attribute as when it
// holds 500. They try the newest postings first and stop at the first one
// too old for the heap; trying every posting in range costs a key and a
// value copy each.
func TestEmbeddedMemReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops seek keys and selections at random")
	}
	var first [2]float64
	for _, n := range []int{500, 4000} {
		db := openMemTweets(t, n)
		lo, hi := fmt.Sprintf("%010d", 0), fmt.Sprintf("%010d", n)
		for i, run := range []func() ([]Entry, error){
			func() ([]Entry, error) { return db.Lookup("UserID", "u01", 10) },
			func() ([]Entry, error) { return db.RangeLookup("CreationTime", lo, hi, 10) },
		} {
			if got, err := run(); err != nil || len(got) != 10 {
				t.Fatalf("%d postings, query %d: %d results (%v)", n, i, len(got), err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d postings, query %d: %.1f allocations", n, i, allocs)
			if first[i] == 0 {
				first[i] = allocs
			} else if allocs != first[i] {
				t.Errorf("query %d allocates %.1f over %d postings, %.1f over 500", i, allocs, n, first[i])
			}
		}
	}
}

// TestWriteAllocations holds a PUT and a DEL, for every index kind, to
// what they allocate now that each MemTable copies its records into its
// arena, internal key included.
// The DEL deletes the document the PUT wrote, and repeats on the absent
// key, as AllocsPerRun repeats it.
func TestWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pending commits at random")
	}
	limits := map[IndexKind]struct{ put, del float64 }{
		IndexNone:      {3, 3},
		IndexEmbedded:  {3, 3},
		IndexEager:     {7, 4},
		IndexLazy:      {5, 4},
		IndexComposite: {7, 4},
	}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{Index: kind,
				Attrs: []string{"UserID", "CreationTime"}, MemTableBytes: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			doc := tweetDoc("u01", 42, "allocations")
			put := testing.AllocsPerRun(100, func() {
				if err := db.Put("t00042", doc); err != nil {
					t.Fatal(err)
				}
			})
			del := testing.AllocsPerRun(100, func() {
				if err := db.Delete("t00042"); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("Put %.1f, Delete %.1f allocations", put, del)
			if want := limits[kind]; put > want.put || del > want.del {
				t.Errorf("Put %.1f, Delete %.1f allocations; want at most %.0f, %.0f", put, del, want.put, want.del)
			}
		})
	}
}
