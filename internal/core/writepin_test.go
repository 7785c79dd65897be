package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePinGolden holds, per index kind, the SHA-256 of every file the
// TestWritePathFilesPinned workload leaves: each table's .sst files,
// MANIFEST and WAL segments, and the database's DESCRIPTOR.
const writePinGolden = "testdata/writepin.golden"

// TestWritePathFilesPinned runs a fixed PUT / DEL / batch workload, with
// a flush and a full compaction on the way, through every index kind and
// holds the bytes of every file it leaves to writePinGolden. Batches
// mix puts before and after their first delete, delete a key they put
// and put a key they deleted, and the workload deletes absent keys, so
// every ordering of index records against the primary commit is pinned,
// index tables' WALs included.
func TestWritePathFilesPinned(t *testing.T) {
	var got strings.Builder
	for _, kind := range allKinds {
		dir := t.TempDir()
		db, err := Open(dir, smallOptions(kind))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		next := 0 // keys t0000 … t<next-1> have been written
		existing := func() string { return fmt.Sprintf("t%04d", rng.Intn(next+1)) }
		user := func() string { return fmt.Sprintf("u%02d", rng.Intn(9)) }
		fresh := func() string { next++; return fmt.Sprintf("t%04d", next-1) }
		for i := 0; i < 1200; i++ {
			switch r := rng.Intn(20); {
			case r < 12:
				err = db.Put(fresh(), tweetDoc(user(), i, "fresh"))
			case r < 15:
				err = db.Put(existing(), tweetDoc(user(), i, "updated"))
			case r < 17:
				err = db.Delete(existing())
			case r == 17:
				err = db.Delete(fmt.Sprintf("absent%04d", i))
			default:
				var b Batch
				k := fresh()
				b.Put(k, tweetDoc(user(), i, "batched"))
				b.Put(existing(), tweetDoc(user(), i, "batch update"))
				b.Delete(existing())
				b.Delete(k)
				b.Put(fresh(), tweetDoc(user(), i, "after delete"))
				if r == 19 {
					b.Put(k, tweetDoc(user(), i, "put again"))
				}
				err = db.Apply(&b)
			}
			if err != nil {
				t.Fatalf("%v op %d: %v", kind, i, err)
			}
			switch i {
			case 400:
				err = db.Flush()
			case 800:
				err = db.CompactRange("", "")
			}
			if err != nil {
				t.Fatalf("%v op %d: %v", kind, i, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			sum := sha256.Sum256(raw)
			fmt.Fprintf(&got, "%v/%s %s\n", kind, filepath.ToSlash(rel), hex.EncodeToString(sum[:]))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(writePinGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d: got %q, pinned %q", i+1, g, w)
			}
		}
		t.Logf("files now:\n%s", got.String())
	}
}
