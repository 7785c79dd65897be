package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// postingsWorkload drives enough writes, overwrites and deletes through db
// to push posting lists through the MemTable, L0, and deeper levels.
func postingsWorkload(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("t%04d", i)
		user := fmt.Sprintf("u%02d", i%7)
		if err := db.Put(key, tweetDoc(user, 1000+i, fmt.Sprintf("text-%04d", i))); err != nil {
			t.Fatal(err)
		}
		if i%23 == 0 && i > 0 {
			// Overwrite with a different UserID: exercises superseded
			// postings and candidate validation.
			if err := db.Put(fmt.Sprintf("t%04d", i-7), tweetDoc("u88", 1500+i, "moved")); err != nil {
				t.Fatal(err)
			}
		}
		if i%31 == 0 && i > 0 {
			if err := db.Delete(fmt.Sprintf("t%04d", i-5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

type postingsResult struct {
	stats   Stats
	primary int64
	index   int64
	scan    []string
	lookups [][]Entry
	rngs    [][]Entry
}

func collectPostingsResult(t *testing.T, db *DB) postingsResult {
	t.Helper()
	var r postingsResult
	r.stats = db.Stats()
	var err error
	if r.primary, r.index, err = db.DiskUsage(); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan("", "", func(k string, _ []byte) bool {
		r.scan = append(r.scan, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"u03", "u88", "u00"} {
		for _, k := range []int{5, 0} {
			res, err := db.Lookup("UserID", user, k)
			if err != nil {
				t.Fatal(err)
			}
			r.lookups = append(r.lookups, res)
		}
	}
	for _, k := range []int{10, 0} {
		res, err := db.RangeLookup("CreationTime", "0000001100", "0000001300", k)
		if err != nil {
			t.Fatal(err)
		}
		r.rngs = append(r.rngs, res)
	}
	return r
}

// TestPostingsFormatEquivalence compares each seed-format fixture — v1
// table blocks and v1 JSON posting lists — with a database that took the
// same writes in the current formats, for all five kinds: every
// observable result (scan, LOOKUP, RANGELOOKUP) must be identical, and
// for Eager/Lazy the v2 index must be no larger on disk.
func TestPostingsFormatEquivalence(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			v1db, _ := openSeedFormat(t, kind)
			v1 := collectPostingsResult(t, v1db)
			v2 := collectPostingsResult(t, openSeedReference(t, kind))
			if !reflect.DeepEqual(v1.scan, v2.scan) {
				t.Errorf("scan differs: v1 %d keys, v2 %d keys", len(v1.scan), len(v2.scan))
			}
			if !reflect.DeepEqual(v1.lookups, v2.lookups) {
				t.Errorf("LOOKUP results differ:\nv1=%v\nv2=%v", v1.lookups, v2.lookups)
			}
			if !reflect.DeepEqual(v1.rngs, v2.rngs) {
				t.Errorf("RANGELOOKUP results differ:\nv1=%v\nv2=%v", v1.rngs, v2.rngs)
			}
			if (kind == IndexEager || kind == IndexLazy) && v2.index > v1.index {
				t.Errorf("v2 index larger on disk: v2=%d v1=%d", v2.index, v1.index)
			}
		})
	}
}

// TestPostingsMixedFormatCompaction writes v2 postings over a v1 fixture
// and compacts: the Lazy merge sees v1 and v2 fragments for the same
// secondary keys in one call, and Eager RMW rewrites v1 lists into v2.
// Results must match a database that took every write in v2.
func TestPostingsMixedFormatCompaction(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			db, _ := openSeedFormat(t, kind)
			seedUpdates(t, db)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			before := db.Stats().Index.FragmentsMerged
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			if kind == IndexLazy && db.Stats().Index.FragmentsMerged == before {
				t.Fatal("compaction merged no posting fragments")
			}

			ref := openSeedReference(t, kind)
			seedUpdates(t, ref)
			for _, user := range []string{"u00", "u03", "u04", "u77", "u88"} {
				got, err := db.Lookup("UserID", user, 10)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Lookup("UserID", user, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("LOOKUP %s after mixed compaction:\ngot  %v\nwant %v", user, got, want)
				}
			}
			got, err := db.RangeLookup("CreationTime", "0000001050", "0000001350", 25)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RangeLookup("CreationTime", "0000001050", "0000001350", 25)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RANGELOOKUP after mixed compaction:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

// TestPostingsV1RecoveryWithV2Defaults is the upgrade path: a fixture's
// WAL tail holds v1-encoded index writes. Opening it replays them,
// lookups sniff the stored format, and a flush plus full compaction
// rewrite the tables without losing entries.
func TestPostingsV1RecoveryWithV2Defaults(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			db, dir := openSeedFormat(t, kind)
			if fi, err := os.Stat(filepath.Join(dir, "index-UserID", "WAL")); err != nil || fi.Size() == 0 {
				t.Fatalf("fixture has no index WAL tail: %v", err)
			}
			ref := openSeedReference(t, kind)
			check := func(stage string) {
				for _, user := range []string{"u00", "u01", "u02", "u03", "u77"} {
					got, err := db.Lookup("UserID", user, 8)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Lookup("UserID", user, 8)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: LOOKUP %s:\ngot  %v\nwant %v", stage, user, got, want)
					}
				}
			}
			check("after reopen")
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			check("after compact")
		})
	}
}
