package core

import (
	"fmt"
	"testing"

	"leveldbpp/internal/metrics"
)

// ioTotals flattens a Stats snapshot into the totals the trace-counter
// taxonomy also records, so EXPLAIN reports can be checked against the
// engine's own I/O accounting.
type ioTotals struct {
	blockReads     int64
	cacheHits      int64
	pointGets      int64
	entriesDecoded int64
	postingEntries int64
	fragments      int64
}

func totals(s Stats) ioTotals {
	return ioTotals{
		blockReads:     s.Primary.BlockReads + s.Index.BlockReads,
		cacheHits:      s.Primary.CacheHits + s.Index.CacheHits,
		pointGets:      s.Primary.PointGets + s.Index.PointGets,
		entriesDecoded: s.Primary.EntriesDecoded + s.Index.EntriesDecoded,
		postingEntries: s.Primary.PostingsEntriesDecoded + s.Index.PostingsEntriesDecoded,
		fragments:      s.Primary.FragmentsMerged + s.Index.FragmentsMerged,
	}
}

func (a ioTotals) sub(b ioTotals) ioTotals {
	return ioTotals{
		blockReads:     a.blockReads - b.blockReads,
		cacheHits:      a.cacheHits - b.cacheHits,
		pointGets:      a.pointGets - b.pointGets,
		entriesDecoded: a.entriesDecoded - b.entriesDecoded,
		postingEntries: a.postingEntries - b.postingEntries,
		fragments:      a.fragments - b.fragments,
	}
}

// openGolden opens a DB with tracing off — EXPLAIN must attribute I/O via
// its detached trace regardless of the sampling rate — and settles the
// tree with a full compaction so no background work moves the stats
// between the snapshots the golden comparison takes.
func openGolden(t *testing.T, kind IndexKind) *DB {
	t.Helper()
	return openGoldenSampled(t, kind, 0)
}

// openGoldenSampled is openGolden with operation tracing at rate.
func openGoldenSampled(t *testing.T, kind IndexKind, rate float64) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{
		Index:         kind,
		Attrs:         []string{"UserID", "CreationTime"},
		MemTableBytes: 32 << 10,
		Tracer:        metrics.NewTracer(rate, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 1500; i++ {
		doc := fmt.Sprintf(`{"UserID":"u%02d","CreationTime":"%010d","pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`, i%5, i)
		if err := db.Put(fmt.Sprintf("t%05d", i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange("", ""); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainGoldenLookup: on every index kind, the EXPLAIN report's trace
// counters must equal the IOStats deltas the same LOOKUP produced — both
// sides increment at the same sites, so any divergence means a phase is
// unattributed.
func TestExplainGoldenLookup(t *testing.T) {
	for _, kind := range []IndexKind{IndexNone, IndexEmbedded, IndexEager, IndexLazy, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openGolden(t, kind)
			before := totals(db.Stats())
			out, rep, err := db.ExplainLookup("UserID", "u01", 10)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || len(out) == 0 {
				t.Fatalf("no report or no results (rep=%v, %d results)", rep, len(out))
			}
			d := totals(db.Stats()).sub(before)

			if rep.IO.BlockReads != d.blockReads {
				t.Errorf("BlockReads: explain=%d stats-delta=%d", rep.IO.BlockReads, d.blockReads)
			}
			if rep.IO.CacheHits != d.cacheHits {
				t.Errorf("CacheHits: explain=%d stats-delta=%d", rep.IO.CacheHits, d.cacheHits)
			}
			if rep.IO.PointGets != d.pointGets {
				t.Errorf("PointGets: explain=%d stats-delta=%d", rep.IO.PointGets, d.pointGets)
			}
			if rep.IO.EntriesDecoded != d.entriesDecoded {
				t.Errorf("EntriesDecoded: explain=%d stats-delta=%d", rep.IO.EntriesDecoded, d.entriesDecoded)
			}
			if kind == IndexEager || kind == IndexLazy {
				if rep.IO.PostingEntries != d.postingEntries {
					t.Errorf("PostingEntries: explain=%d stats-delta=%d", rep.IO.PostingEntries, d.postingEntries)
				}
				if kind == IndexLazy && rep.IO.PostingFragments != d.fragments {
					t.Errorf("PostingFragments: explain=%d stats-delta=%d", rep.IO.PostingFragments, d.fragments)
				}
			}
			if rep.ObservedIO != rep.IO.BlockReads+rep.IO.CacheHits {
				t.Errorf("ObservedIO %d != BlockReads+CacheHits %d",
					rep.ObservedIO, rep.IO.BlockReads+rep.IO.CacheHits)
			}
			if rep.PredictedIO <= 0 || rep.Formula == "" {
				t.Errorf("missing prediction: predicted=%.1f formula=%q", rep.PredictedIO, rep.Formula)
			}
			if rep.Plan == "" || rep.Index != kind.String() {
				t.Errorf("bad plan/index labels: %+v", rep)
			}
			checkStandAloneRatio(t, kind, rep.Ratio)
		})
	}
}

// checkStandAloneRatio holds a stand-alone kind's observed/predicted ratio
// to [0.5, 2.0]. The model charges the distinct primary blocks of the
// results, which chunked validation reads once each; charging one block
// per result would put the ratio below the drift tracker's floor.
func checkStandAloneRatio(t *testing.T, kind IndexKind, ratio float64) {
	t.Helper()
	if kind != IndexEager && kind != IndexLazy && kind != IndexComposite {
		return
	}
	t.Logf("observed/predicted = %.2f", ratio)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("observed/predicted = %.2f, want [0.5, 2.0]", ratio)
	}
}

// TestExplainGoldenRangeLookup repeats the golden comparison for
// RANGELOOKUP on the block-access counters.
func TestExplainGoldenRangeLookup(t *testing.T) {
	for _, kind := range []IndexKind{IndexNone, IndexEmbedded, IndexEager, IndexLazy, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openGolden(t, kind)
			before := totals(db.Stats())
			out, rep, err := db.ExplainRangeLookup("CreationTime", "0000000000", "0000000500", 10)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || len(out) == 0 {
				t.Fatalf("no report or no results (rep=%v, %d results)", rep, len(out))
			}
			d := totals(db.Stats()).sub(before)
			if rep.IO.BlockReads != d.blockReads {
				t.Errorf("BlockReads: explain=%d stats-delta=%d", rep.IO.BlockReads, d.blockReads)
			}
			if rep.IO.CacheHits != d.cacheHits {
				t.Errorf("CacheHits: explain=%d stats-delta=%d", rep.IO.CacheHits, d.cacheHits)
			}
			if rep.IO.PointGets != d.pointGets {
				t.Errorf("PointGets: explain=%d stats-delta=%d", rep.IO.PointGets, d.pointGets)
			}
			if rep.PredictedIO <= 0 {
				t.Errorf("missing prediction: %+v", rep)
			}
			checkStandAloneRatio(t, kind, rep.Ratio)
		})
	}
}

// TestExplainGoldenGet: GET's report must attribute its point access and
// block reads exactly, and predict the paper's single logical I/O.
func TestExplainGoldenGet(t *testing.T) {
	db := openGolden(t, IndexLazy)
	before := totals(db.Stats())
	v, ok, rep, err := db.ExplainGet("t00042")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(v) == 0 {
		t.Fatal("t00042 not found")
	}
	d := totals(db.Stats()).sub(before)
	if rep.IO.PointGets != d.pointGets {
		t.Errorf("PointGets: explain=%d stats-delta=%d", rep.IO.PointGets, d.pointGets)
	}
	if rep.IO.BlockReads != d.blockReads {
		t.Errorf("BlockReads: explain=%d stats-delta=%d", rep.IO.BlockReads, d.blockReads)
	}
	if rep.PredictedIO != 1 {
		t.Errorf("GET predicted %.1f, want 1", rep.PredictedIO)
	}
	if rep.Plan != "point_get" {
		t.Errorf("GET plan = %q", rep.Plan)
	}
}

// TestExplainUnknownAttr: EXPLAIN enforces the same attribute check as the
// plain query path.
func TestExplainUnknownAttr(t *testing.T) {
	db := openGolden(t, IndexLazy)
	if _, _, err := db.ExplainLookup("Nope", "x", 1); err != ErrUnknownAttr {
		t.Fatalf("err = %v, want ErrUnknownAttr", err)
	}
	if _, _, err := db.ExplainRangeLookup("Nope", "a", "b", 1); err != ErrUnknownAttr {
		t.Fatalf("err = %v, want ErrUnknownAttr", err)
	}
}
