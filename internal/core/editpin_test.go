package core

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"leveldbpp/internal/metrics"
)

// editPinGolden holds, per index kind and table, the version edits the
// TestVersionEditsPinned workload installs, in order.
const editPinGolden = "testdata/editpin.golden"

// editRecorder is an event sink that keeps, per table, the version edit
// of every flush, compaction and trivial move, in the order the table
// installs them.
type editRecorder struct {
	mu    sync.Mutex
	edits map[string][]string // guarded by mu
}

func (r *editRecorder) Emit(e metrics.Event) {
	switch e.Type {
	case metrics.EventFlushDone, metrics.EventCompactionDone, metrics.EventTrivialMove:
	default:
		return
	}
	r.mu.Lock()
	r.edits[e.Table] = append(r.edits[e.Table], fmt.Sprintf("%s %s", e.Type, e.Detail))
	r.mu.Unlock()
}

// TestVersionEditsPinned runs a fixed single-writer workload through every
// index kind and holds each table's sequence of version edits — target
// level, added and deleted table numbers, flushed floor — to
// editPinGolden. Every flush, compaction pick, trivial move and file
// number the pipeline produces shows up in it. Edits are compared per
// table: when one table's edits land relative to another's is not
// pinned. The failure log prints the new listing.
func TestVersionEditsPinned(t *testing.T) {
	var got strings.Builder
	for _, kind := range allKinds {
		rec := &editRecorder{edits: map[string][]string{}}
		opts := smallOptions(kind)
		opts.Events = rec
		db, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(46))
		next := 0 // keys t00000 … t<next-1> have been written
		text := strings.Repeat("pinned ", 12)
		for i := 0; i < 4000; i++ {
			// Fresh keys in order first, so level-0 tables are disjoint and
			// move down; then updates and deletes of older keys among them.
			key := fmt.Sprintf("t%05d", next)
			switch r := rng.Intn(10); {
			case i < 1500 || r < 4:
				next++
			case r < 9:
				key = fmt.Sprintf("t%05d", rng.Intn(next))
			default:
				key = ""
			}
			if key == "" {
				err = db.Delete(fmt.Sprintf("t%05d", rng.Intn(next)))
			} else {
				err = db.Put(key, tweetDoc(fmt.Sprintf("u%02d", rng.Intn(12)), i, text))
			}
			if err != nil {
				t.Fatalf("%v op %d: %v", kind, i, err)
			}
			switch i {
			case 1500:
				err = db.Flush()
			case 3000:
				err = db.CompactRange("", "")
			}
			if err != nil {
				t.Fatalf("%v op %d: %v", kind, i, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, table := range tableNames(kind) {
			edits := rec.edits[table]
			if len(edits) == 0 {
				t.Fatalf("%v/%s installed no version edit", kind, table)
			}
			for _, e := range edits {
				fmt.Fprintf(&got, "%v/%s %s\n", kind, table, e)
			}
		}
	}
	want, err := os.ReadFile(editPinGolden)
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
				break
			}
		}
		t.Logf("edits now:\n%s", got.String())
	}
}

// tableNames lists the tables of a database of kind, in core.DB.tables
// order.
func tableNames(kind IndexKind) []string {
	names := []string{"primary"}
	switch kind {
	case IndexEager, IndexLazy, IndexComposite:
		for _, attr := range smallOptions(kind).Attrs {
			names = append(names, "index-"+attr)
		}
	}
	return names
}
