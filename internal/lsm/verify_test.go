package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerifyCleanStore(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	for i := 0; i < 3000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i%800), fmt.Sprintf("val%032d", i))
	}
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store reported problems: %v", rep.Problems)
	}
	if rep.Tables == 0 || rep.Entries == 0 || rep.Blocks == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%032d", i))
	}
	db.Flush()
	db.Close()

	// Flip a byte in the middle of some SSTable's data section.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(matches) == 0 {
		t.Fatal("no sstables on disk")
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallOpts())
	if err != nil {
		// Corruption in the meta section is caught at open; that also
		// counts as detection.
		return
	}
	defer db2.Close()
	rep, err := db2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("bit rot not detected")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "checksum") || strings.Contains(p, "corrupt") ||
			strings.Contains(p, "entries") || strings.Contains(p, "order") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexpected problem set: %v", rep.Problems)
	}
}

// TestVerifyReportsShapeProblems installs, past applyEditLocked's check,
// an overlapping pair in level 1 and an empty table in level 2: Verify
// must report each once.
func TestVerifyReportsShapeProblems(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	a, b, empty := buildTable(t, db, "a", "m"), buildTable(t, db, "k", "z"), buildTable(t, db)
	db.mu.Lock()
	db.v = newVersion(len(db.v.levels))
	db.v.levels[1] = []*FileMeta{a, b}
	db.v.levels[2] = []*FileMeta{empty}
	db.mu.Unlock()
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("level 2: table %06d is empty", empty.Num),
		fmt.Sprintf("level 1: tables %06d and %06d overlap", a.Num, b.Num),
	}
	if len(rep.Problems) != len(want) {
		t.Fatalf("problems %q, want one each of %q", rep.Problems, want)
	}
	for _, w := range want {
		n := 0
		for _, p := range rep.Problems {
			if strings.HasPrefix(p, w) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("problems %q: %d start with %q, want 1", rep.Problems, n, w)
		}
	}
}

func TestVerifyEmptyStore(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Tables != 0 {
		t.Fatalf("empty store report: %+v", rep)
	}
}

func TestVerifyClosedDB(t *testing.T) {
	db, _ := openTestDB(t, smallOpts())
	db.Close()
	if _, err := db.Verify(); err != ErrClosed {
		t.Fatalf("Verify on closed db: %v", err)
	}
}
