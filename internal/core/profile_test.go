package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestProfilerOpMixPinned holds the profiler's op mix after a fixed
// sequence of every operation, its EXPLAIN form and the early returns
// (an inverted RANGELOOKUP, an unindexed attribute) to exact values:
// which calls count as an operation, once each, and what the top-K and
// matched aggregates make of them.
func TestProfilerOpMixPinned(t *testing.T) {
	db := openKind(t, IndexLazy)
	for i := 0; i < 30; i++ {
		if err := db.Put(fmt.Sprintf("k%02d", i), tweetDoc(fmt.Sprintf("u%d", i%3), i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put("k05", tweetDoc("u1", 100, "overwrite")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k01", "k02", "k29", "missing"} {
		if _, _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete("k07"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("UserID", "u1", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("UserID", "u2", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RangeLookup("CreationTime", fmt.Sprintf("%010d", 3), fmt.Sprintf("%010d", 12), 4); err != nil {
		t.Fatal(err)
	}
	if out, err := db.RangeLookup("CreationTime", "b", "a", 4); err != nil || out != nil {
		t.Fatalf("inverted RangeLookup = %v, %v", out, err)
	}
	if _, _, _, err := db.ExplainGet("k03"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := db.ExplainGet("missing"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExplainLookup("UserID", "u0", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExplainRangeLookup("CreationTime", fmt.Sprintf("%010d", 0), fmt.Sprintf("%010d", 29), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExplainRangeLookup("CreationTime", "b", "a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("Text", "x", 5); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unindexed Lookup error = %v", err)
	}
	if _, _, err := db.ExplainLookup("Text", "x", 5); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unindexed ExplainLookup error = %v", err)
	}

	w := db.Profiler().Snapshot()
	wantOps := map[string]int64{"put": 31, "get": 6, "delete": 1, "lookup": 3, "rangelookup": 2}
	if !reflect.DeepEqual(w.Ops, wantOps) {
		t.Errorf("Ops = %v, want %v", w.Ops, wantOps)
	}
	if w.TotalOps != 43 {
		t.Errorf("TotalOps = %d, want 43", w.TotalOps)
	}
	if w.TypicalTopK != 4 {
		t.Errorf("TypicalTopK = %d, want 4", w.TypicalTopK)
	}
	if w.MeanMatched != 9.8 { // (5 + 9 + 4 + 3 + 28) / 5
		t.Errorf("MeanMatched = %v, want 9.8", w.MeanMatched)
	}
}
