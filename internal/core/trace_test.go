package core

import (
	"fmt"
	"strings"
	"testing"

	"leveldbpp/internal/metrics"
)

func openTraced(t *testing.T, kind IndexKind) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{
		Index:         kind,
		Attrs:         []string{"UserID", "CreationTime"},
		MemTableBytes: 32 << 10,
		Tracer:        metrics.NewTracer(1, 0), // trace everything; threshold 0 records all
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func fillTraced(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"UserID":"u%02d","CreationTime":"%010d","pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`, i%5, i)
		if err := db.Put(fmt.Sprintf("t%05d", i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second wave stays in the MemTable so lookups cross mem and table
	// strata alike.
	for i := n; i < n+n/10; i++ {
		doc := fmt.Sprintf(`{"UserID":"u%02d","CreationTime":"%010d"}`, i%5, i)
		if err := db.Put(fmt.Sprintf("t%05d", i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
}

// lastTrace returns the most recent recorded trace for op.
func lastTrace(t *testing.T, db *DB, op string) metrics.TraceRecord {
	t.Helper()
	recs := db.Tracer().Slow()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Op == op {
			return recs[i]
		}
	}
	t.Fatalf("no %s trace recorded (have %d records)", op, len(recs))
	return metrics.TraceRecord{}
}

// TestLookupTraceCoverage is the acceptance check for the phase taxonomy:
// on every index kind, a traced LOOKUP attributes at least 95% of its wall
// time to named top-level phases. Phases tile the operation from its first
// Enter on, so a pause, even a preemption, falls inside the phase it
// interrupts: one traced LOOKUP must meet the threshold.
func TestLookupTraceCoverage(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite, IndexEmbedded} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTraced(t, kind)
			fillTraced(t, db, 2000)

			if _, err := db.Lookup("UserID", "u01", 0); err != nil {
				t.Fatal(err)
			}
			rec := lastTrace(t, db, "lookup")
			if rec.Coverage < 0.95 || rec.Coverage > 1 {
				t.Fatalf("lookup coverage %.3f outside [0.95, 1]; trace: %+v", rec.Coverage, rec)
			}
			if len(rec.Phases) == 0 {
				t.Fatal("trace has no phases")
			}
			for _, p := range rec.Phases {
				if p.Phase == "unknown" {
					t.Fatalf("unnamed phase in trace: %+v", rec)
				}
			}
			if !strings.HasPrefix(rec.Detail, "UserID=u01 plan=") {
				t.Fatalf("lookup detail = %q", rec.Detail)
			}
		})
	}
}

// TestRangeLookupTraceCoverage repeats the coverage check for RANGELOOKUP,
// whose stand-alone paths alternate between the candidate stream's phase
// and validate once per chunk.
func TestRangeLookupTraceCoverage(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite, IndexEmbedded} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTraced(t, kind)
			fillTraced(t, db, 2000)

			if _, err := db.RangeLookup("CreationTime", "0000000000", "0000001000", 0); err != nil {
				t.Fatal(err)
			}
			if rec := lastTrace(t, db, "rangelookup"); rec.Coverage < 0.95 || rec.Coverage > 1 {
				t.Fatalf("rangelookup coverage %.3f outside [0.95, 1]; trace: %+v", rec.Coverage, rec)
			}
		})
	}
}

// TestTracePutPhases checks the write path names its phases too.
func TestTracePutPhases(t *testing.T) {
	db := openTraced(t, IndexLazy)
	fillTraced(t, db, 500)
	rec := lastTrace(t, db, "put")
	if len(rec.Phases) == 0 {
		t.Fatalf("put trace has no phases: %+v", rec)
	}
	names := map[string]bool{}
	for _, p := range rec.Phases {
		names[p.Phase] = true
	}
	for _, want := range []string{"wal", "mem_insert", "index_update"} {
		if !names[want] {
			t.Fatalf("put trace missing phase %q: %+v", want, rec.Phases)
		}
	}
}

// TestScanTracedAndObserved holds Scan to the other reads: every call is
// one observation of the scan latency histogram, and a traced scan over a
// flushed table records its block accesses.
func TestScanTracedAndObserved(t *testing.T) {
	db := openTraced(t, IndexLazy)
	fillTraced(t, db, 500)
	const scans = 7
	for i := 0; i < scans; i++ {
		rows := 0
		if err := db.Scan("t00010", "t00100", func(string, []byte) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		if rows != 91 {
			t.Fatalf("scan returned %d rows, want 91", rows)
		}
	}
	if got := db.OpStats().Hist(metrics.OpScan).Count(); got != scans {
		t.Fatalf("scan histogram counts %d, want %d", got, scans)
	}
	if rec := lastTrace(t, db, "scan"); rec.IO == nil || rec.IO.BlockAccesses() == 0 {
		t.Fatalf("scan over a flushed table traced no block access: %+v", rec)
	}
}

// TestWriteReadsTraced checks that the reads a write makes reach its
// trace: an Eager PUT's read of the current posting list and a DEL's read
// of the old document, each from a flushed table, and the same read in a
// batch, which is traced and observed as one operation. Their time stays
// inside index_update, so one write's coverage holds.
func TestWriteReadsTraced(t *testing.T) {
	for _, tc := range []struct {
		kind IndexKind
		op   metrics.Op
		do   func(db *DB, i int) error
	}{
		{IndexEager, metrics.OpPut, func(db *DB, i int) error {
			return db.Put(fmt.Sprintf("n%05d", i), []byte(`{"UserID":"u01","CreationTime":"0000000001"}`))
		}},
		{IndexLazy, metrics.OpDelete, func(db *DB, i int) error { return db.Delete(fmt.Sprintf("t%05d", i)) }},
		{IndexLazy, metrics.OpBatch, func(db *DB, i int) error {
			var b Batch
			b.Put(fmt.Sprintf("n%05d", i), []byte(`{"UserID":"u01","CreationTime":"0000000001"}`))
			b.Delete(fmt.Sprintf("t%05d", i))
			return db.Apply(&b)
		}},
	} {
		t.Run(tc.kind.String()+"/"+tc.op.String(), func(t *testing.T) {
			db := openTraced(t, tc.kind)
			fillTraced(t, db, 500)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			observed := db.OpStats().Hist(tc.op).Count()
			if err := tc.do(db, 0); err != nil {
				t.Fatal(err)
			}
			if n := db.OpStats().Hist(tc.op).Count() - observed; n != 1 {
				t.Fatalf("%s observed %d times, want once", tc.op, n)
			}
			rec := lastTrace(t, db, tc.op.String())
			if rec.IO == nil || rec.IO.BlockAccesses() == 0 {
				t.Fatalf("%s over flushed tables traced no block access: %+v", tc.op, rec)
			}
			if rec.Coverage < 0.95 || rec.Coverage > 1 {
				t.Fatalf("%s coverage %.3f outside [0.95, 1]; trace: %+v", tc.op, rec.Coverage, rec)
			}
		})
	}
}

// TestTracingDisabledByDefault: with no sample rate the tracer never
// samples, Slow stays empty, and operations still record OpStats latency.
func TestTracingDisabledByDefault(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Index: IndexLazy, Attrs: []string{"UserID"}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("k1", []byte(`{"UserID":"u1"}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("UserID", "u1", 0); err != nil {
		t.Fatal(err)
	}
	if recs := db.Tracer().Slow(); len(recs) != 0 {
		t.Fatalf("disabled tracer recorded %d traces", len(recs))
	}
	if bd := db.Tracer().Breakdown(); len(bd) != 0 {
		t.Fatalf("disabled tracer aggregated %d ops", len(bd))
	}
	for _, op := range []metrics.Op{metrics.OpGet, metrics.OpPut, metrics.OpLookup} {
		if db.OpStats().Hist(op).Count() == 0 {
			t.Fatalf("OpStats missing %s observations with tracing off", op)
		}
	}
}

// TestBreakdownAccumulates: the tracer's cumulative per-op aggregates
// cover all traced operations and reset cleanly between experiments.
func TestBreakdownAccumulates(t *testing.T) {
	db := openTraced(t, IndexLazy)
	fillTraced(t, db, 300)
	if _, err := db.Lookup("UserID", "u01", 5); err != nil {
		t.Fatal(err)
	}
	bds := db.Tracer().Breakdown()
	seen := map[string]bool{}
	for _, b := range bds {
		seen[b.Op] = true
		if b.Count <= 0 || b.TotalUS <= 0 {
			t.Fatalf("degenerate breakdown row: %+v", b)
		}
	}
	for _, want := range []string{"put", "lookup"} {
		if !seen[want] {
			t.Fatalf("breakdown missing op %q: %+v", want, bds)
		}
	}
	db.Tracer().ResetBreakdown()
	if bds := db.Tracer().Breakdown(); len(bds) != 0 {
		t.Fatalf("breakdown not reset: %+v", bds)
	}
}
