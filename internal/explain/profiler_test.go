package explain

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leveldbpp/internal/metrics"
)

func TestWorkloadSnapshot(t *testing.T) {
	ops := metrics.NewOpStats()
	p := NewWorkloadProfiler(ops, nil)
	for i := 0; i < 60; i++ {
		ops.Observe(metrics.OpPut, time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		ops.Observe(metrics.OpGet, time.Microsecond)
	}
	for i := 0; i < 15; i++ {
		ops.Observe(metrics.OpLookup, time.Microsecond)
		p.RecordQuery(10, 25)
	}
	for i := 0; i < 5; i++ {
		ops.Observe(metrics.OpRangeLookup, time.Microsecond)
		p.RecordQuery(0, 100) // unbounded
	}
	w := p.Snapshot()
	if w.TotalOps != 100 {
		t.Fatalf("TotalOps = %d", w.TotalOps)
	}
	if w.WriteFraction != 0.6 {
		t.Errorf("WriteFraction = %g, want 0.6", w.WriteFraction)
	}
	if w.SecondaryQueryFraction != 0.2 {
		t.Errorf("SecondaryQueryFraction = %g, want 0.2", w.SecondaryQueryFraction)
	}
	if w.TypicalTopK != 10 {
		t.Errorf("TypicalTopK = %d, want 10", w.TypicalTopK)
	}
	if w.UnboundedFraction != 0.25 {
		t.Errorf("UnboundedFraction = %g, want 0.25", w.UnboundedFraction)
	}
	if w.MeanMatched != 43.75 { // (15·25 + 5·100) / 20
		t.Errorf("MeanMatched = %g, want 43.75", w.MeanMatched)
	}
}

func TestTypicalTopKUnboundedMajority(t *testing.T) {
	p := NewWorkloadProfiler(metrics.NewOpStats(), nil)
	for i := 0; i < 10; i++ {
		p.RecordQuery(0, 50)
	}
	p.RecordQuery(5, 50)
	if w := p.Snapshot(); w.TypicalTopK != 0 {
		t.Fatalf("TypicalTopK = %d for an unbounded-majority workload, want 0", w.TypicalTopK)
	}
}

func TestTimeCorrelated(t *testing.T) {
	p := NewWorkloadProfiler(metrics.NewOpStats(), nil)
	// Below corrMinSamples: never correlated, however clean the order.
	for i := 0; i < corrMinSamples/2; i++ {
		p.RecordAttrValue("CreationTime", fmt.Sprintf("%010d", i))
	}
	if p.TimeCorrelated("CreationTime") {
		t.Fatal("correlated with too few samples")
	}
	for i := corrMinSamples / 2; i < 3*corrMinSamples; i++ {
		p.RecordAttrValue("CreationTime", fmt.Sprintf("%010d", i))
		p.RecordAttrValue("UserID", fmt.Sprintf("u%02d", (i*53)%97))
	}
	if !p.TimeCorrelated("CreationTime") {
		t.Error("monotone attribute not detected as time-correlated")
	}
	if p.TimeCorrelated("UserID") {
		t.Error("shuffled attribute reported as time-correlated")
	}
	if p.TimeCorrelated("NoSuchAttr") {
		t.Error("unseen attribute reported as time-correlated")
	}
	w := p.Snapshot()
	if !w.TimeCorrelated {
		t.Error("snapshot did not surface the correlated attribute")
	}
	if c := w.TimeCorrelation["CreationTime"]; c < corrThreshold {
		t.Errorf("CreationTime correlation = %g", c)
	}
}

// TestModelDriftEvent: a sustained out-of-band ratio fires exactly one
// model_drift event; recovery into the clear band re-arms it so a second
// excursion fires again.
func TestModelDriftEvent(t *testing.T) {
	events := metrics.NewEventLog(64)
	p := NewWorkloadProfiler(metrics.NewOpStats(), events)

	drifts := func() int {
		n := 0
		for _, e := range events.Events() {
			if e.Type == metrics.EventModelDrift {
				n++
			}
		}
		return n
	}

	for i := 0; i < driftMinSamples-1; i++ {
		p.RecordRatio(metrics.OpLookup, 10)
	}
	if drifts() != 0 {
		t.Fatal("drift fired below the minimum sample count")
	}
	p.RecordRatio(metrics.OpLookup, 10)
	if drifts() != 1 {
		t.Fatalf("drift events = %d after sustained 10x ratio, want 1", drifts())
	}
	// Still drifted: no further events while out of band.
	for i := 0; i < 2*ratioWindowSize; i++ {
		p.RecordRatio(metrics.OpLookup, 10)
	}
	if drifts() != 1 {
		t.Fatalf("drift events = %d, repeated excursion must not re-fire", drifts())
	}
	// Recover into the clear band, then drift again: one more event.
	for i := 0; i < 2*ratioWindowSize; i++ {
		p.RecordRatio(metrics.OpLookup, 1)
	}
	if w := p.Snapshot(); w.Ratios["lookup"].Drifted {
		t.Fatal("flag did not clear after recovery")
	}
	for i := 0; i < 2*ratioWindowSize; i++ {
		p.RecordRatio(metrics.OpLookup, 0.1)
	}
	if drifts() != 2 {
		t.Fatalf("drift events = %d after recovery and second excursion, want 2", drifts())
	}
}

func TestRecordRatioIgnoresNonPositive(t *testing.T) {
	p := NewWorkloadProfiler(metrics.NewOpStats(), nil)
	p.RecordRatio(metrics.OpLookup, 0)
	p.RecordRatio(metrics.OpLookup, -3)
	if w := p.Snapshot(); len(w.Ratios) != 0 {
		t.Fatalf("non-positive ratios recorded: %+v", w.Ratios)
	}
}

func TestNilProfilerSafe(t *testing.T) {
	var p *WorkloadProfiler
	p.RecordQuery(10, 5)
	p.RecordAttrValue("a", "v")
	p.RecordRatio(metrics.OpLookup, 1)
	if p.TimeCorrelated("a") {
		t.Fatal("nil profiler correlated")
	}
	if w := p.Snapshot(); w.TotalOps != 0 {
		t.Fatalf("nil snapshot: %+v", w)
	}
}

// TestProfilerConcurrent hammers every recording path, and the OpStats
// the op mix is read from, alongside Snapshot readers; run under -race
// this is the profiler's thread-safety gate.
func TestProfilerConcurrent(t *testing.T) {
	ops := metrics.NewOpStats()
	p := NewWorkloadProfiler(ops, metrics.NewEventLog(16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				switch i % 5 {
				case 0:
					ops.Observe(metrics.OpPut, time.Microsecond)
				case 1:
					ops.Observe(metrics.OpLookup, time.Microsecond)
					p.RecordQuery(i%20, i%50)
				case 2:
					p.RecordAttrValue("CreationTime", fmt.Sprintf("%010d", i))
				case 3:
					p.RecordRatio(metrics.Op(i%int(metrics.NumOps)), float64(i%7)+0.5)
				case 4:
					_ = p.Snapshot()
					_ = p.TimeCorrelated("CreationTime")
				}
			}
		}(g)
	}
	wg.Wait()
	if w := p.Snapshot(); w.TotalOps != 8*2*400 {
		t.Fatalf("TotalOps = %d, want %d", w.TotalOps, 8*2*400)
	}
}
