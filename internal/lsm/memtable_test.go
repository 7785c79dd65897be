package lsm

import (
	"strings"
	"testing"
)

// TestMemGetAllocationFree holds a MemTable probe to zero allocations:
// a hit, a tombstone and a miss, the last two with keys longer than any
// probed before, so the pooled seek key must grow once and then be
// reused. A point read asks every MemTable, and Embedded asks one per
// validated candidate.
func TestMemGetAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	db, _ := openTestDB(t, &Options{MemTableBytes: 1 << 30})
	mustPut(t, db, "key-1", "v1")
	mustPut(t, db, "key-1", "v2")
	long := strings.Repeat("k", 300)
	mustPut(t, db, long, "v")
	if err := db.DeleteAt([]byte(long), 0); err != nil {
		t.Fatal(err)
	}
	err := db.View(func(v *View) error {
		mem := v.Strata()[0]
		for _, c := range []struct {
			key              string
			val              string
			deleted, present bool
		}{
			{"key-1", "v2", false, true},
			{long, "", true, true},
			{long + "-absent", "", false, false},
			{"key-0", "", false, false},
		} {
			key := []byte(c.key)
			val, _, deleted, ok := mem.MemGet(key)
			if string(val) != c.val || ok != c.present || deleted != c.deleted {
				t.Errorf("MemGet(%.10q…) = %q, deleted %v, ok %v", c.key, val, deleted, ok)
			}
			if n := testing.AllocsPerRun(100, func() { mem.MemGet(key) }); n != 0 {
				t.Errorf("MemGet(%.10q…) allocates %.1f per probe, want 0", c.key, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
