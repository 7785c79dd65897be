package main

import (
	"testing"

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
		{"lookup", "NotIndexed", "x"},
	}
	for _, args := range bad {
		if err := execute(db, args); err == nil {
			t.Errorf("execute(%v) should fail", args)
		}
	}
}
