package experiments

import (
	"io"
	"testing"

	"leveldbpp/internal/core"
	"leveldbpp/internal/workload"
)

// testConfig is small enough for CI but still spans flushes and
// multi-level compactions (MemTable 256 KiB, ~350-byte docs).
func testConfig(t *testing.T) Config {
	scale := 6000
	if testing.Short() {
		scale = 2000
	}
	return Config{Scale: scale, Dir: t.TempDir(), Out: io.Discard, Seed: 11, Queries: 30}
}

func TestFig7ZipfShape(t *testing.T) {
	r, err := Fig7DatasetZipf(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveUsers < 10 {
		t.Fatalf("too few users: %d", r.ActiveUsers)
	}
	if r.Slope >= -0.3 {
		t.Fatalf("distribution not heavy-tailed: slope %.2f", r.Slope)
	}
	if r.TopUser <= r.MedianUser {
		t.Fatal("rank-frequency not skewed")
	}
}

func TestFig8aSizeOrdering(t *testing.T) {
	rs, err := Fig8aDatabaseSize(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[core.IndexKind]Fig8aResult{}
	for _, r := range rs {
		byKind[r.Kind] = r
	}
	// Paper Fig 8a: Embedded keeps no index tables → most space-efficient,
	// close to NoIndex; stand-alone variants pay for index tables.
	if byKind[core.IndexEmbedded].IndexBytes != 0 {
		t.Error("Embedded must have zero index-table bytes")
	}
	for _, k := range []core.IndexKind{core.IndexEager, core.IndexLazy, core.IndexComposite} {
		if byKind[k].IndexBytes == 0 {
			t.Errorf("%v must have a non-empty index table", k)
		}
	}
	// Embedded pays in memory-resident filters instead.
	if byKind[core.IndexEmbedded].FilterMemory <= byKind[core.IndexNone].FilterMemory {
		t.Error("Embedded filter memory should exceed NoIndex (extra secondary filters)")
	}
}

func TestFig8bWriteCostOrdering(t *testing.T) {
	rs, err := Fig8bPutPerformance(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[core.IndexKind]Fig8bResult{}
	for _, r := range rs {
		byKind[r.Kind] = r
	}
	// Paper Fig 8b: Embedded ingests (nearly) at NoIndex speed; Eager is
	// the worst writer; Composite is the best stand-alone.
	if byKind[core.IndexEmbedded].IndexWriteIO != 0 {
		t.Error("Embedded writes must not touch index tables")
	}
	eager, lazy, comp := byKind[core.IndexEager], byKind[core.IndexLazy], byKind[core.IndexComposite]
	if eager.IndexWriteIO+eager.IndexReadIO <= lazy.IndexWriteIO+lazy.IndexReadIO {
		t.Errorf("Eager index I/O (%d) must dominate Lazy (%d)",
			eager.IndexWriteIO+eager.IndexReadIO, lazy.IndexWriteIO+lazy.IndexReadIO)
	}
	if eager.IndexReadIO == 0 {
		t.Error("Eager writes must read the index table")
	}
	if lazy.IndexReadIO != 0 || comp.IndexReadIO != 0 {
		t.Error("Lazy/Composite writes must not read the index table")
	}
}

func TestFig8cGetUnaffected(t *testing.T) {
	rs, err := Fig8cGetPerformance(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 8c: "all the index variants have identical GET performance
	// with negligible difference" — block reads per GET must be within a
	// small factor across variants.
	var minIO, maxIO float64
	for i, r := range rs {
		if i == 0 || r.GetBlockReads < minIO {
			minIO = r.GetBlockReads
		}
		if i == 0 || r.GetBlockReads > maxIO {
			maxIO = r.GetBlockReads
		}
	}
	if maxIO > 3*minIO+0.5 {
		t.Errorf("GET I/O varies too much across variants: [%.2f, %.2f]", minIO, maxIO)
	}
}

func TestFig9EagerCompactionGrowsFastest(t *testing.T) {
	rs, err := Fig9PutOverTime(testConfig(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	final := map[core.IndexKind]Fig9Point{}
	for _, r := range rs {
		final[r.Kind] = r.Points[len(r.Points)-1]
	}
	// Paper Fig 9c: Eager's cumulative index compaction I/O grows far
	// faster than Lazy/Composite on the non-time-correlated UserID index.
	if final[core.IndexEager].CumIndexWriteIO <= final[core.IndexLazy].CumIndexWriteIO {
		t.Errorf("Eager cumulative index write I/O (%d) must exceed Lazy (%d)",
			final[core.IndexEager].CumIndexWriteIO, final[core.IndexLazy].CumIndexWriteIO)
	}
	if final[core.IndexEmbedded].CumIndexCompIO != 0 {
		t.Error("Embedded has no index table to compact")
	}
}

func TestFig10StandAloneBeatEmbeddedOnUserID(t *testing.T) {
	c := testConfig(t)
	rs, err := Fig10UserIDQueries(c)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(kind core.IndexKind, op workload.OpKind, k, sel int) *QueryResult {
		for i := range rs {
			r := &rs[i]
			if r.Kind == kind && r.Op == op && r.TopK == k && r.Selectivity == sel {
				return r
			}
		}
		t.Fatalf("missing cell %v/%v/k=%d/sel=%d", kind, op, k, sel)
		return nil
	}
	// Paper Fig 10a: stand-alone indexes beat Embedded on the
	// non-time-correlated attribute (zone maps don't prune; bloom checks
	// and block reads pile up). Compare I/O per query, the scale-stable
	// metric.
	embIO := cell(core.IndexEmbedded, workload.OpLookup, 10, 0).IOPerQuery
	lazyIO := cell(core.IndexLazy, workload.OpLookup, 10, 0).IOPerQuery
	if lazyIO >= embIO*3 {
		t.Errorf("Lazy top-10 LOOKUP I/O (%.2f) should not be 3x Embedded (%.2f)", lazyIO, embIO)
	}
	// NoIndex must be the worst scanner by far.
	noneIO := cell(core.IndexNone, workload.OpLookup, 10, 0).IOPerQuery
	if noneIO <= embIO {
		t.Errorf("NoIndex LOOKUP I/O (%.2f) must exceed Embedded (%.2f)", noneIO, embIO)
	}
	// Paper Fig 10: Lazy beats Composite at small top-K (early exit);
	// at no-limit they converge (both K+L) — allow generous slack, compare
	// at k=1.
	lazy1 := cell(core.IndexLazy, workload.OpLookup, 1, 0).IOPerQuery
	comp1 := cell(core.IndexComposite, workload.OpLookup, 1, 0).IOPerQuery
	if lazy1 > comp1*1.5+1 {
		t.Errorf("Lazy top-1 I/O (%.2f) should not exceed Composite (%.2f) materially", lazy1, comp1)
	}
	// Paper: "Embedded Index (i.e. Zone Maps) does not perform well for
	// non time-correlated Index and almost performs the same as no index"
	// — at no-limit K, where early termination cannot mask the scan.
	embR := cell(core.IndexEmbedded, workload.OpRangeLookup, 0, 10).IOPerQuery
	noneR := cell(core.IndexNone, workload.OpRangeLookup, 0, 10).IOPerQuery
	if embR < noneR/4 {
		t.Errorf("uncorrelated RANGELOOKUP: Embedded I/O (%.2f) should be near NoIndex (%.2f)", embR, noneR)
	}
	// Stand-alone at bounded K must beat Embedded's no-limit scan cost.
	lazyR := cell(core.IndexLazy, workload.OpRangeLookup, 10, 10).IOPerQuery
	if lazyR >= embR {
		t.Errorf("Lazy top-10 RANGELOOKUP I/O (%.2f) must beat Embedded no-limit scan (%.2f)", lazyR, embR)
	}
}

func TestFig11ZoneMapsPruneTimeCorrelated(t *testing.T) {
	c := testConfig(t)
	rs, err := Fig11CreationTimeQueries(c)
	if err != nil {
		t.Fatal(err)
	}
	var embRange, noneRange float64
	for _, r := range rs {
		// No-limit K: the cell where zone-map pruning (and nothing else)
		// decides the cost.
		if r.Op == workload.OpRangeLookup && r.TopK == 0 && r.Selectivity == 1 {
			switch r.Kind {
			case core.IndexEmbedded:
				embRange = r.IOPerQuery
			case core.IndexNone:
				noneRange = r.IOPerQuery
			}
		}
	}
	// Paper Fig 11b/c: zone maps are "very effective" on time-correlated
	// attributes — Embedded must prune the vast majority of NoIndex's I/O.
	if embRange >= noneRange/3 {
		t.Errorf("time-correlated RANGELOOKUP: Embedded I/O (%.2f) should be <1/3 of NoIndex (%.2f)",
			embRange, noneRange)
	}
}

func TestFig12MixedWorkloadsRun(t *testing.T) {
	c := testConfig(t)
	// 6000 ops fill four primary MemTables, one L0 compaction's worth.
	c.Scale = 6000
	// The write-heavy mix with a quarter of its puts turned into updates
	// of earlier tweets. Fresh tweet IDs rise, so the flushed tables of
	// Fig12WriteHeavy's mix are disjoint and its compaction moves them
	// down unread; updates make the tables overlap, so the compaction
	// merges and the curve below has compaction I/O to show.
	mix := workload.WriteHeavy
	mix.UpdateFrac = 0.25
	rs, err := MixedWorkload(c, "write-heavy", mix, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(VariantsNoEager) {
		t.Fatalf("got %d curves", len(rs))
	}
	final := map[core.IndexKind]MixedPoint{}
	for _, r := range rs {
		if len(r.Points) == 0 {
			t.Fatalf("%v produced no checkpoints", r.Kind)
		}
		final[r.Kind] = r.Points[len(r.Points)-1]
	}
	// Embedded pays no index compaction in a write-heavy mix.
	if lazyComp := final[core.IndexLazy].CumCompactionIO; lazyComp == 0 {
		t.Error("Lazy write-heavy run must show index compaction I/O")
	}
	// Checkpoint sequence must be monotone in ops and cumulative I/O.
	for _, r := range rs {
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].Ops <= r.Points[i-1].Ops ||
				r.Points[i].CumCompactionIO < r.Points[i-1].CumCompactionIO ||
				r.Points[i].CumGetIO < r.Points[i-1].CumGetIO {
				t.Fatalf("%v: non-monotone checkpoints", r.Kind)
			}
		}
	}
}

func TestTable3And5(t *testing.T) {
	c := testConfig(t)
	rows3, measured, err := Table3Embedded(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) != 4 || measured < 0 {
		t.Fatal("Table 3 malformed")
	}
	rows5, m5, err := Table5StandAlone(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows5) != 8 {
		t.Fatal("Table 5 malformed")
	}
	// Measured per-PUT index I/O: Eager must dominate Lazy and Composite,
	// the core Table 5 relationship.
	if m5[core.IndexEager] <= m5[core.IndexLazy] {
		t.Errorf("measured Eager I/O/PUT (%.3f) must exceed Lazy (%.3f)",
			m5[core.IndexEager], m5[core.IndexLazy])
	}
}

func TestFig2AdvisorScenarios(t *testing.T) {
	recs := Fig2Advisor(testConfig(t))
	if len(recs) != 5 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	want := []core.IndexKind{
		core.IndexEmbedded,  // sensor network
		core.IndexLazy,      // social feed
		core.IndexComposite, // analytics
		core.IndexEmbedded,  // time-correlated
		core.IndexEmbedded,  // space constrained
	}
	for i, r := range recs {
		if r.Index != want[i] {
			t.Errorf("scenario %d: got %v want %v", i, r.Index, want[i])
		}
	}
}

func TestAppendixC1MoreBitsLessIO(t *testing.T) {
	c := testConfig(t)
	rs, err := AppendixC1BloomBits(c, []int{2, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatal("sweep incomplete")
	}
	// Paper C.1: larger filters → lower FP rate → fewer block reads, at
	// the cost of filter memory.
	if rs[2].IOPerLookup > rs[0].IOPerLookup {
		t.Errorf("50 bits/key I/O (%.2f) should not exceed 2 bits/key (%.2f)",
			rs[2].IOPerLookup, rs[0].IOPerLookup)
	}
	if rs[2].FilterMemBytes <= rs[0].FilterMemBytes {
		t.Error("filter memory must grow with bits/key")
	}
	if rs[2].TheoreticalFP >= rs[0].TheoreticalFP {
		t.Error("FP rate must fall with bits/key")
	}
}

func TestAppendixC2CompressionShrinksDisk(t *testing.T) {
	c := testConfig(t)
	rs, err := AppendixC2Compression(c)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]C2Result{}
	for _, r := range rs {
		key := r.Kind.String()
		if r.Compressed {
			key += "+c"
		}
		byKey[key] = r
	}
	if byKey["Embedded+c"].DiskBytes >= byKey["Embedded"].DiskBytes {
		t.Error("compression must shrink the Embedded store")
	}
	if byKey["Lazy+c"].DiskBytes >= byKey["Lazy"].DiskBytes {
		t.Error("compression must shrink the Lazy store")
	}
}

func TestEmbeddedAblationIO(t *testing.T) {
	c := testConfig(t)
	rs, err := EmbeddedAblations(c)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	// GetLite's whole point: validity checks without full-GET reads.
	if byName["no-getlite"].IOPerLookup < byName["baseline"].IOPerLookup {
		t.Errorf("disabling GetLite should not reduce I/O: %.2f vs baseline %.2f",
			byName["no-getlite"].IOPerLookup, byName["baseline"].IOPerLookup)
	}
}
