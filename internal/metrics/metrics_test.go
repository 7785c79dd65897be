package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestIOStatsSnapshotAndSub(t *testing.T) {
	var s IOStats
	s.BlockReads.Add(5)
	s.BlockWrites.Add(3)
	s.CompactionReads.Add(2)
	s.CompactionWrites.Add(1)
	a := s.Snapshot()
	if a.TotalIO() != 11 {
		t.Fatalf("TotalIO = %d", a.TotalIO())
	}
	if a.CompactionIO() != 3 {
		t.Fatalf("CompactionIO = %d", a.CompactionIO())
	}
	s.BlockReads.Add(10)
	d := s.Snapshot().Sub(a)
	if d.BlockReads != 10 || d.BlockWrites != 0 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %f", got)
	}
	if got := h.Quantile(0.5); math.Abs(got-50.5) > 1 {
		t.Fatalf("median = %f", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %f", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q1 = %f", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	b := h.BoxPlot()
	if b.Count != 0 {
		t.Fatal("empty boxplot count")
	}
}

func TestBoxPlotShape(t *testing.T) {
	h := NewHistogram(0)
	// 1..99 plus one extreme outlier.
	for i := 1; i < 100; i++ {
		h.Observe(float64(i))
	}
	h.Observe(10000)
	b := h.BoxPlot()
	if !(b.Q1 < b.Median && b.Median < b.Q3) {
		t.Fatalf("quartiles disordered: %+v", b)
	}
	if b.WhiskerHigh >= 10000 {
		t.Fatalf("whisker should exclude the outlier: %+v", b)
	}
	if b.WhiskerLow > b.Q1 || b.WhiskerHigh < b.Q3 {
		t.Fatalf("whiskers must bracket the box: %+v", b)
	}
}

func TestReservoirSamplingStaysBounded(t *testing.T) {
	h := NewHistogram(1000)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50000; i++ {
		h.Observe(rng.Float64() * 100)
	}
	if h.Count() != 50000 {
		t.Fatalf("Count = %d", h.Count())
	}
	// Median of Uniform(0,100) is 50; the reservoir estimate should land
	// near it.
	if m := h.Quantile(0.5); m < 45 || m > 55 {
		t.Fatalf("reservoir median = %f, want ~50", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
}
