package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"leveldbpp/internal/cli"
	"leveldbpp/internal/core"
)

func openShellDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{
		Index: core.IndexLazy,
		Attrs: []string{"UserID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestExecuteCommands(t *testing.T) {
	db := openShellDB(t)
	steps := [][]string{
		{"put", "t1", `{"UserID":"u1","Text":"hello`, `world"}`}, // spaces re-joined
		{"put", "t2", `{"UserID":"u1"}`},
		{"get", "t1"},
		{"lookup", "UserID", "u1"},
		{"lookup", "UserID", "u1", "1"},
		{"rangelookup", "UserID", "u0", "u2", "5"},
		{"explain", "get", "t1"},
		{"explain", "lookup", "UserID", "u1", "1"},
		{"explain", "rangelookup", "UserID", "u0", "u2"},
		{"del", "t1"},
		{"flush"},
		{"stats"},
		{"check"},
		{"help"},
	}
	for _, args := range steps {
		if err := execute(db, args); err != nil {
			t.Fatalf("execute(%v): %v", args, err)
		}
	}
	// The re-joined put must have stored the full JSON.
	v, ok, _ := db.Get("t2")
	if !ok || string(v) != `{"UserID":"u1"}` {
		t.Fatalf("t2 = %q %v", v, ok)
	}
}

func TestExecuteErrors(t *testing.T) {
	db := openShellDB(t)
	bad := [][]string{
		{"put", "only-key"},
		{"get"},
		{"del"},
		{"lookup", "UserID"},
		{"lookup", "UserID", "u1", "not-a-number"},
		{"rangelookup", "UserID", "a"},
		{"frobnicate"},
		{"explain"},
		{"explain", "put", "k", "{}"},
		{"explain", "rangelookup", "UserID", "u0"},
		{"lookup", "NotIndexed", "x"},
	}
	for _, args := range bad {
		if err := execute(db, args); err == nil {
			t.Errorf("execute(%v) should fail", args)
		}
	}
}

// TestGenLoadDumpRoundTrip drives the data tools end to end: gen writes a
// dataset that load puts into a new Composite database, gen writes a
// mixed operation stream that load replays into it (its LOOKUPs carry
// their value in "value"), dump verifies a table the loads wrote, and
// the database then opens with -db alone and answers a LOOKUP as it did
// when opened with its flags.
func TestGenLoadDumpRoundTrip(t *testing.T) {
	run := func(sub, in string, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := subcommands[sub](args, strings.NewReader(in), &out); err != nil {
			t.Fatalf("%s %v: %v", sub, args, err)
		}
		return out.String()
	}
	dir := filepath.Join(t.TempDir(), "db")
	dataset := run("gen", "", "-tweets", "600", "-seed", "7")
	run("load", dataset, "-db", dir, "-index", "composite", "-quiet")
	summary := run("load", run("gen", "", "-mode", "mixed", "-ratios", "read-heavy", "-ops", "400"), "-db", dir, "-replay")
	if !strings.Contains(summary, " LOOKUP=") || !strings.Contains(summary, " PUT=") {
		t.Fatalf("replay summary %q", summary)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "primary", "*.sst"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no primary tables: %v", err)
	}
	if out := run("dump", "", "-verify", tables[0]); !strings.Contains(out, "verify: OK") {
		t.Fatalf("dump -verify:\n%s", out)
	}

	var first struct{ ID, UserID string }
	if err := json.Unmarshal([]byte(dataset[:strings.IndexByte(dataset, '\n')]), &first); err != nil {
		t.Fatal(err)
	}
	lookup := func(args ...string) string {
		t.Helper()
		fs := flag.NewFlagSet("lsmdb", flag.ContinueOnError)
		open := cli.DBFlags(fs)
		if err := fs.Parse(append([]string{"-db", dir}, args...)); err != nil {
			t.Fatal(err)
		}
		db, err := open(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if db.Kind() != core.IndexComposite {
			t.Fatalf("opened as %v", db.Kind())
		}
		res, err := db.Lookup("UserID", first.UserID, 5)
		if err != nil || len(res) == 0 {
			t.Fatalf("LOOKUP UserID %s: %d results, %v", first.UserID, len(res), err)
		}
		return fmt.Sprint(res)
	}
	if flagged, bare := lookup("-index", "composite", "-attrs", "UserID,CreationTime"), lookup(); bare != flagged {
		t.Fatalf("LOOKUP with -db alone:\n%s\nwith -index and -attrs:\n%s", bare, flagged)
	}
}
