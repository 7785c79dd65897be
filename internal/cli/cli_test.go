package cli_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leveldbpp/internal/cli"
	"leveldbpp/internal/core"
	"leveldbpp/internal/server"
)

// openWith parses args as a tool's command line and opens the database
// it names.
func openWith(t *testing.T, args ...string) (*core.DB, error) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	open := cli.DBFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return open(core.Options{})
}

// TestOpenAsRecorded creates an Embedded and a Composite database on
// attributes other than the tools' defaults, then opens each with -db
// alone, as lsmdb and lsmserver do. LOOKUP answers the K newest matching
// records, directly and over HTTP. Before databases recorded their
// index, the defaults (Lazy on UserID,CreationTime) opened both and
// answered nothing.
func TestOpenAsRecorded(t *testing.T) {
	for _, kind := range []core.IndexKind{core.IndexEmbedded, core.IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db, err := core.Open(dir, core.Options{Index: kind, Attrs: []string{"CreationTime", "UserID"}, MemTableBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			var want []string // u1's keys, newest first
			for i := 0; i < 300; i++ {
				key, user := fmt.Sprintf("t%03d", i), fmt.Sprintf("u%d", i%4)
				doc := fmt.Sprintf(`{"UserID":%q,"CreationTime":"%010d"}`, user, i)
				if err := db.Put(key, []byte(doc)); err != nil {
					t.Fatal(err)
				}
				if user == "u1" {
					want = append([]string{key}, want...)
				}
			}
			want = want[:5]
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			if _, err := openWith(t, "-db", dir, "-index", "lazy"); err == nil || !strings.Contains(err.Error(), kind.String()) {
				t.Fatalf("-index lazy on a %v database: %v", kind, err)
			}
			if _, err := openWith(t, "-db", dir, "-attrs", "UserID"); err == nil {
				t.Fatal("-attrs UserID on a CreationTime,UserID database opened")
			}
			db, err = openWith(t, "-db", dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Kind() != kind || !slices.Equal(db.Attrs(), []string{"CreationTime", "UserID"}) {
				t.Fatalf("opened as %v on %q", db.Kind(), db.Attrs())
			}
			res, err := db.Lookup("UserID", "u1", 5)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range res {
				got = append(got, e.Key)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("LOOKUP UserID u1 K=5 = %v, want %v", got, want)
			}

			srv := httptest.NewServer(server.NewWith(db, server.Config{}))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/lookup?attr=UserID&value=u1&k=5")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var served []struct{ Key string }
			if err := json.Unmarshal(body, &served); err != nil {
				t.Fatalf("GET /lookup: %v: %s", err, body)
			}
			got = got[:0]
			for _, e := range served {
				got = append(got, e.Key)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("GET /lookup = %v, want %v", got, want)
			}
		})
	}
}

// TestOpenCreatesWithFlags: a new directory takes -index and -attrs,
// Lazy on UserID,CreationTime when neither is given, and -db is
// required.
func TestOpenCreatesWithFlags(t *testing.T) {
	if _, err := openWith(t); err == nil {
		t.Fatal("opened without -db")
	}
	for _, c := range []struct {
		args  []string
		kind  core.IndexKind
		attrs []string
	}{
		{nil, core.IndexLazy, []string{"UserID", "CreationTime"}},
		{[]string{"-index", "eager", "-attrs", "Dept"}, core.IndexEager, []string{"Dept"}},
	} {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := openWith(t, append([]string{"-db", dir}, c.args...)...)
		if err != nil {
			t.Fatal(err)
		}
		kind, attrs := db.Kind(), db.Attrs()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if kind != c.kind || !slices.Equal(attrs, c.attrs) {
			t.Errorf("%v: created %v on %q", c.args, kind, attrs)
		}
	}
}
