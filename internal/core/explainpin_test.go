package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"leveldbpp/internal/explain"
	"leveldbpp/internal/metrics"
)

// explainPinGolden holds, per index kind, the EXPLAIN report of every
// operation in pinnedReads without its timings, and the profiler's model
// ratios after the same reads ran explained and plain.
const explainPinGolden = "testdata/explainpin.golden"

// pinnedRead is one GET, LOOKUP or RANGELOOKUP of the pin.
type pinnedRead struct {
	op           string // "get", "lookup" or "rangelookup"
	attr, lo, hi string // lo is the key of a GET and the value of a LOOKUP
	k            int
}

// pinnedReads hits and misses each read on openGolden's data, and includes
// an unbounded range and an empty one (hi < lo).
var pinnedReads = []pinnedRead{
	{op: "get", lo: "t00042"},
	{op: "get", lo: "t99999"},
	{op: "lookup", attr: "UserID", lo: "u01", k: 10},
	{op: "lookup", attr: "UserID", lo: "u99", k: 10},
	{op: "rangelookup", attr: "CreationTime", lo: "0000000000", hi: "0000000500", k: 10},
	{op: "rangelookup", attr: "CreationTime", lo: "0000001400", hi: "0000001449", k: 0},
	{op: "rangelookup", attr: "CreationTime", lo: "0000000900", hi: "0000000100", k: 10},
}

func (r pinnedRead) String() string {
	switch r.op {
	case "get":
		return "get " + r.lo
	case "lookup":
		return fmt.Sprintf("lookup %s=%s k=%d", r.attr, r.lo, r.k)
	default:
		return fmt.Sprintf("rangelookup %s=[%s,%s] k=%d", r.attr, r.lo, r.hi, r.k)
	}
}

// explained runs r through EXPLAIN and returns its report.
func (r pinnedRead) explained(db *DB) (*explain.Report, error) {
	var rep *explain.Report
	var err error
	switch r.op {
	case "get":
		_, _, rep, err = db.ExplainGet(r.lo)
	case "lookup":
		_, rep, err = db.ExplainLookup(r.attr, r.lo, r.k)
	default:
		_, rep, err = db.ExplainRangeLookup(r.attr, r.lo, r.hi, r.k)
	}
	return rep, err
}

// plain runs r through the plain read.
func (r pinnedRead) plain(db *DB) error {
	var err error
	switch r.op {
	case "get":
		_, _, err = db.Get(r.lo)
	case "lookup":
		_, err = db.Lookup(r.attr, r.lo, r.k)
	default:
		_, err = db.RangeLookup(r.attr, r.lo, r.hi, r.k)
	}
	return err
}

// profilePin renders what the profiler learned from the reads: each op's
// count, the mean matched per query and the model ratios.
func profilePin(db *DB) string {
	w := db.Profiler().Snapshot()
	b, err := json.Marshal(struct {
		Ops         map[string]int64 `json:"ops"`
		MeanMatched float64          `json:"mean_matched"`
		Ratios      any              `json:"model_ratios"`
	}{w.Ops, w.MeanMatched, w.Ratios})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestExplainReportsPinned holds, on every index kind, the EXPLAIN GET,
// LOOKUP and RANGELOOKUP reports of pinnedReads on openGolden's data —
// every field but the phase times and the total — and the profiler state
// after the same reads: once explained with tracing off, once plain with
// every operation traced. The failure log prints the new listing.
func TestExplainReportsPinned(t *testing.T) {
	var got strings.Builder
	for _, kind := range allKinds {
		db := openGolden(t, kind)
		for _, r := range pinnedReads {
			rep, err := r.explained(db)
			if err != nil {
				t.Fatalf("%v %v: %v", kind, r, err)
			}
			phases := make([]string, len(rep.Phases))
			for i, p := range rep.Phases {
				phases[i] = fmt.Sprintf("%s:%d", p.Phase, p.Count)
			}
			pinned := *rep
			pinned.TotalUS, pinned.Phases = 0, nil
			b, err := json.Marshal(pinned)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%v %v: %s phases=%s\n", kind, r, b, strings.Join(phases, ","))
		}
		fmt.Fprintf(&got, "%v explained profile: %s\n", kind, profilePin(db))

		db = openGoldenSampled(t, kind, 1)
		for _, r := range pinnedReads {
			if err := r.plain(db); err != nil {
				t.Fatalf("%v %v: %v", kind, r, err)
			}
		}
		fmt.Fprintf(&got, "%v plain profile: %s\n", kind, profilePin(db))
	}
	checkGolden(t, explainPinGolden, got.String())
}

// checkGolden fails t at the first line where got differs from the
// golden file and logs got whole, to paste in when a change is meant.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
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
		t.Logf("%s now:\n%s", path, got)
	}
}

// writeTracePinGolden holds, per index kind, the phases (name and count)
// and the I/O counters of the traced writes of TestWriteTracePinned.
const writeTracePinGolden = "testdata/writetracepin.golden"

// TestWriteTracePinned holds the write path's trace as TestExplainReportsPinned
// holds the reads': on openGolden's data, with every operation traced, a
// PUT of a new key, a DEL of a flushed one (its old document is read for
// the index deletes), a two-op batch (a put before the primary commit, a
// delete after it) and a PUT that fills the MemTable and so rotates it.
// Batches are not sampled by the tracer, so the batch runs the one write
// path under a detached trace.
func TestWriteTracePinned(t *testing.T) {
	var got strings.Builder
	pin := func(kind IndexKind, what string, rec metrics.TraceRecord) {
		phases := make([]string, len(rec.Phases))
		for i, p := range rec.Phases {
			phases[i] = fmt.Sprintf("%s:%d", p.Phase, p.Count)
		}
		b, err := json.Marshal(rec.IO)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%v %s: phases=%s io=%s\n", kind, what, strings.Join(phases, ","), b)
	}
	for _, kind := range allKinds {
		db := openGoldenSampled(t, kind, 1)
		if err := db.Put("t01500", tweetDoc("u01", 1500, "new")); err != nil {
			t.Fatal(err)
		}
		pin(kind, "put t01500", lastTrace(t, db, "put"))
		if err := db.Delete("t00042"); err != nil {
			t.Fatal(err)
		}
		pin(kind, "delete t00042", lastTrace(t, db, "delete"))

		var b Batch
		b.Put("t01501", tweetDoc("u02", 1501, "batched"))
		b.Delete("t00043")
		var buf [4]attrSlot
		tr := metrics.StartDetached(metrics.OpPut)
		if err := db.write(b.ops, attrSlots(&buf, len(db.opts.Attrs)), tr); err != nil {
			t.Fatal(err)
		}
		pin(kind, "apply put t01501, delete t00043", tr.Record())

		big := tweetDoc("u03", 1502, strings.Repeat("x", 40<<10))
		if err := db.Put("t01502", big); err != nil {
			t.Fatal(err)
		}
		pin(kind, "put t01502 (fills the MemTable)", lastTrace(t, db, "put"))
	}
	checkGolden(t, writeTracePinGolden, got.String())
}
