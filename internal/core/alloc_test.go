package core

import "testing"

// TestWarmReadAllocations pins what warm reads on a settled Lazy tree
// allocate to what they allocated when validation ran one primary GET per
// candidate: a LOOKUP and a RANGELOOKUP at K = 10, and a primary-table GET
// that hits a table. Chunked validation must not cost more.
func TestWarmReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops decoders at random")
	}
	db := openGolden(t, IndexLazy)
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"lookup", 88, func() error {
			_, err := db.Lookup("UserID", "u01", 10)
			return err
		}},
		{"rangelookup", 606, func() error {
			_, err := db.RangeLookup("CreationTime", "0000000000", "0000000500", 10)
			return err
		}},
		{"primary get", 5, func() error {
			_, ok, err := db.primary.Get([]byte("t00042"))
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
