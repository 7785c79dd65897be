package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"leveldbpp/internal/lsm"
)

// TestHandoffCrashImage copies a database while every table's last
// handoff has finished — its flush and compaction outputs and its
// MANIFEST written — and none is installed: the image a crash leaves
// between two freezes. The primary's MANIFEST in the copy must name the
// finished handoff's newest table, which the installed version does not
// hold yet, and the reopened copy must answer every acknowledged write
// through Get and LOOKUP, for every index kind.
func TestHandoffCrashImage(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			m := newModel()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 900; i++ {
				key := fmt.Sprintf("t%04d", rng.Intn(300))
				if rng.Intn(8) == 0 {
					err = db.Delete(key)
					m.del(key)
				} else {
					user := fmt.Sprintf("u%02d", rng.Intn(9))
					err = db.Put(key, tweetDoc(user, i, "crash"))
					m.put(key, user, i)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			db.Stats() // waits for every table's handoff; installs none
			crash := copyFixture(t, dir)
			newest := newestTable(t, filepath.Join(crash, "primary"))
			if installedTable(t, db, newest) {
				t.Fatalf("primary table %s is installed: the last handoff left nothing to install", newest)
			}
			if !manifestNames(t, filepath.Join(crash, "primary"))[newest] {
				t.Fatalf("the crash image's primary MANIFEST does not name %s, the finished handoff's output", newest)
			}

			re, err := Open(crash, smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if orphans := unnamedTables(t, filepath.Join(crash, "primary")); orphans != 0 {
				t.Fatalf("%d primary tables outside the MANIFEST survived the reopen", orphans)
			}
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("t%04d", i)
				_, ok, err := re.Get(key)
				if _, want := m.recs[key]; err != nil || ok != want {
					t.Fatalf("Get(%s) = %v %v, want %v", key, ok, err, want)
				}
			}
			for u := 0; u < 9; u++ {
				user := fmt.Sprintf("u%02d", u)
				got, err := re.Lookup("UserID", user, 0)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.lookup("UserID", user, user, 0); !sameKeys(keysOf(got), want) {
					t.Fatalf("Lookup(%s) = %v, want %v", user, keysOf(got), want)
				}
			}
		})
	}
}

// unnamedTables counts the table files of an engine directory that its
// MANIFEST does not name.
func unnamedTables(t *testing.T, dir string) int {
	t.Helper()
	named := manifestNames(t, dir)
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range tables {
		if !named[filepath.Base(p)] {
			n++
		}
	}
	return n
}

// newestTable returns the file name of the highest-numbered table of an
// engine directory.
func newestTable(t *testing.T, dir string) string {
	t.Helper()
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no table in %s (%v)", dir, err)
	}
	return filepath.Base(slices.Max(tables)) // numbers are zero-padded
}

// installedTable reports whether the primary's installed version holds
// the table file name.
func installedTable(t *testing.T, db *DB, name string) bool {
	t.Helper()
	found := false
	err := db.primary.View(func(v *lsm.View) error {
		for _, s := range v.Strata() {
			for _, fm := range s.Tables {
				found = found || fmt.Sprintf("%06d.sst", fm.Num) == name
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// manifestNames returns the table file names an engine directory's
// MANIFEST names.
func manifestNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Levels [][]struct {
			Num uint64 `json:"num"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, level := range m.Levels {
		for _, f := range level {
			named[fmt.Sprintf("%06d.sst", f.Num)] = true
		}
	}
	return named
}
