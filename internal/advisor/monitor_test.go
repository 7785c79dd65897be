package advisor

import (
	"testing"

	"leveldbpp/internal/core"
	"leveldbpp/internal/explain"
	"leveldbpp/internal/metrics"
)

func openLazy(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{
		Index: core.IndexLazy,
		Attrs: []string{"UserID", "CreationTime"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// lookup profiles one LOOKUP that requested k results and matched 40,
// counted in OpStats like a served one.
func lookup(db *core.DB, k int) {
	db.OpStats().Observe(metrics.OpLookup, 0)
	db.Profiler().RecordQuery(k, 40)
}

func flips(db *core.DB) int {
	n := 0
	for _, e := range db.EventLog().Events() {
		if e.Type == metrics.EventAdvisorFlip {
			n++
		}
	}
	return n
}

func TestFromWorkload(t *testing.T) {
	p := FromWorkload(explain.Workload{
		WriteFraction:          0.7,
		SecondaryQueryFraction: 0.1,
		TimeCorrelated:         true,
		TypicalTopK:            10,
	})
	if p.WriteFraction != 0.7 || p.SecondaryQueryFraction != 0.1 ||
		!p.TimeCorrelated || p.TypicalTopK != 10 {
		t.Fatalf("profile = %+v", p)
	}
	if p.SpaceConstrained {
		t.Fatal("SpaceConstrained is not observable and must stay false")
	}
}

// TestMonitorFlipOnce: an insufficient profile never advises; a sustained
// mismatch fires exactly one advisor_flip event; Evaluate never emits.
func TestMonitorFlipOnce(t *testing.T) {
	db := openLazy(t)
	m := NewMonitor(db)

	if res := m.Check(); res.Sufficient {
		t.Fatalf("sufficient with zero profiled ops: %+v", res)
	}
	if flips(db) != 0 {
		t.Fatal("insufficient profile emitted an event")
	}

	// Unbounded analytics-style lookups: Figure 2 recommends Composite,
	// mismatching the configured Lazy kind.
	for i := 0; i < 2*minOpsForAdvice; i++ {
		lookup(db, 0)
	}
	res := m.Evaluate()
	if !res.Sufficient || res.Match {
		t.Fatalf("evaluate = %+v", res)
	}
	if res.Configured != "Lazy" || res.Recommended != "Composite" {
		t.Fatalf("recommendation = %s -> %s", res.Configured, res.Recommended)
	}
	if flips(db) != 0 {
		t.Fatal("Evaluate emitted an event")
	}

	if res := m.Check(); res.Match {
		t.Fatalf("check matched: %+v", res)
	}
	if flips(db) != 1 {
		t.Fatalf("flip events = %d, want 1", flips(db))
	}
	// A stable mismatch must not repeat the event.
	for i := 0; i < 3; i++ {
		m.Check()
	}
	if flips(db) != 1 {
		t.Fatalf("flip events = %d after repeated checks, want 1", flips(db))
	}
}

// TestMonitorRearmsAfterMatch: once the recommendation returns to the
// configured kind, a later divergence fires a fresh event.
func TestMonitorRearmsAfterMatch(t *testing.T) {
	db := openLazy(t)
	m := NewMonitor(db)

	// Mismatch (Composite), then flood with bounded top-10 queries until
	// the median K is positive again and Lazy matches.
	for i := 0; i < 2*minOpsForAdvice; i++ {
		lookup(db, 0)
	}
	m.Check()
	if flips(db) != 1 {
		t.Fatalf("flip events = %d, want 1", flips(db))
	}
	for i := 0; i < 10*minOpsForAdvice; i++ {
		lookup(db, 10)
	}
	res := m.Check()
	if !res.Match {
		t.Fatalf("expected match after bounded flood: %+v", res)
	}
	if flips(db) != 1 {
		t.Fatalf("flip events = %d after recovery, want 1", flips(db))
	}
	// New divergence: a monotone CreationTime stream makes the attribute
	// time-correlated and pushes the recommendation to Embedded.
	for i := 0; i < 100; i++ {
		db.Profiler().RecordAttrValue("CreationTime",
			string([]byte{'0' + byte(i/10%10), '0' + byte(i%10)}))
	}
	res = m.Check()
	if res.Match || res.Recommended != "Embedded" {
		t.Fatalf("expected Embedded divergence: %+v", res)
	}
	if flips(db) != 2 {
		t.Fatalf("flip events = %d after second divergence, want 2", flips(db))
	}
}
