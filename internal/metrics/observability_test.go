package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramRaceMixedReadersWriters hammers one bucket histogram with
// concurrent writers and every reader the exporter uses; run under -race
// (make lint-race does) this proves the /metrics render path can share a
// live histogram with the operation hot path, and the final counts show
// that no observation was lost.
func TestHistogramRaceMixedReadersWriters(t *testing.T) {
	h := NewBucketHistogram(DefLatencyBuckets)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) * 1e-6)
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Scrape order: buckets, then count. Every cumulative bucket
				// must stay within the +Inf bucket.
				var buf bytes.Buffer
				h.WritePrometheus(&buf, "x", map[string]string{"op": "get"})
				if last, inf := bucketValue(t, buf.String(), "0.000128"), bucketValue(t, buf.String(), "+Inf"); last > inf {
					t.Errorf("bucket le=0.000128 = %v above +Inf = %v", last, inf)
				}
				h.Count()
				h.Sum()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if h.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", h.Count(), writers*perWriter)
	}
	// Each writer observes 0..99 µs fifty times; bucket le=2^j µs holds the
	// values in (2^(j-1), 2^j] µs, and le=1µs holds 0 and 1.
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "x", nil)
	for _, c := range []struct {
		le   string
		want float64
	}{{"1e-06", 2}, {"2e-06", 3}, {"4e-06", 5}, {"6.4e-05", 65}, {"0.000128", 100}, {"+Inf", 100}} {
		if got := bucketValue(t, buf.String(), c.le); got != c.want*writers*perWriter/100 {
			t.Errorf("bucket le=%s = %v, want %v", c.le, got, c.want*writers*perWriter/100)
		}
	}
	// The sum of 0..99 µs, 200 times over; float addition order varies
	// with the interleaving, so compare to a tolerance.
	if want := 4950e-6 * writers * perWriter / 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
}

// bucketValue returns the value of the x_bucket sample with label le in
// an exposition.
func bucketValue(t *testing.T, exp, le string) float64 {
	t.Helper()
	for _, line := range strings.Split(exp, "\n") {
		if !strings.HasPrefix(line, "x_bucket{") || !strings.Contains(line, `le="`+le+`"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	t.Fatalf("no bucket le=%s in\n%s", le, exp)
	return 0
}

// TestBucketHistogramObserveAllocs: recording a value allocates nothing,
// so OpStats and the commit leader's group-size histogram add no garbage
// per operation.
func TestBucketHistogramObserveAllocs(t *testing.T) {
	h := NewBucketHistogram(DefLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3e-5) }); n != 0 {
		t.Fatalf("Observe allocates %v times, want 0", n)
	}
}

func TestEntriesDecodedPerGetZeroGets(t *testing.T) {
	var sn Snapshot
	if got := sn.EntriesDecodedPerGet(); got != 0 {
		t.Fatalf("zero gets: %f, want 0 (not NaN/Inf)", got)
	}
	sn = Snapshot{PointGets: 4, EntriesDecoded: 10}
	if got := sn.EntriesDecodedPerGet(); got != 2.5 {
		t.Fatalf("EntriesDecodedPerGet = %f, want 2.5", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty: every quantile and the bucket export degrade to zeros.
	h := NewHistogram(10)
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %f", q, v)
		}
	}
	var buf bytes.Buffer
	NewBucketHistogram([]float64{1, 2}).WritePrometheus(&buf, "m", nil)
	if !strings.Contains(buf.String(), `m_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram export:\n%s", buf.String())
	}

	// Single sample: every quantile is that sample; box plot collapses.
	h.Observe(7)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 7 {
			t.Fatalf("single-sample Quantile(%v) = %f, want 7", q, v)
		}
	}
	b := h.BoxPlot()
	if b.Median != 7 || b.Q1 != 7 || b.Q3 != 7 {
		t.Fatalf("single-sample boxplot: %+v", b)
	}
}

func TestBucketCountingCumulative(t *testing.T) {
	h := NewBucketHistogram([]float64{100, 1, 10}) // sorted on construction
	for _, v := range []float64{0.5, 0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "m", map[string]string{"table": "primary"})
	// ≤1: three (a bound is inclusive), ≤10: four, ≤100: five; 500 only
	// in +Inf.
	want := `m_bucket{le="1",table="primary"} 3
m_bucket{le="10",table="primary"} 4
m_bucket{le="100",table="primary"} 5
m_bucket{le="+Inf",table="primary"} 6
m_sum{table="primary"} 557
m_count{table="primary"} 6
`
	if buf.String() != want {
		t.Fatalf("export:\n%s\nwant:\n%s", buf.String(), want)
	}
	if h.Count() != 6 || h.Sum() != 557 {
		t.Fatalf("Count, Sum = %d, %v", h.Count(), h.Sum())
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels(map[string]string{"b": `quo"te`, "a": "line\nbreak"})
	want := `{a="line\nbreak",b="quo\"te"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
	if Labels(nil) != "" {
		t.Fatal("empty label set must render empty")
	}
}

func TestEventLogRingBounded(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: EventFlushDone})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// The ring keeps the newest events; counts keep the full tally.
	if evs[len(evs)-1].Seq != 10 || evs[0].Seq != 7 {
		t.Fatalf("ring window = [%d, %d], want [7, 10]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	if l.Counts()[EventFlushDone] != 10 {
		t.Fatalf("counts = %v", l.Counts())
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestJSONLSinkCloseReportsWriteErrors(t *testing.T) {
	s := NewJSONLSink(&failWriter{n: 0})
	// Enough events to overflow the bufio buffer so the failing writer is
	// actually hit mid-stream.
	for i := 0; i < 500; i++ {
		s.Emit(Event{Seq: uint64(i + 1), Type: EventFlushStart, Table: "primary"})
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the sticky write error")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Type: EventCompactionDone, Table: "primary", Level: 1, Outputs: 2, Bytes: 4096})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var e Event
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("bad JSONL line %q: %v", line, err)
	}
	if e.Type != EventCompactionDone || e.Table != "primary" || e.Outputs != 2 {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
	// Events after Close are dropped silently.
	s.Emit(Event{Type: EventFlushStart})
}

func TestTracerSamplingPeriod(t *testing.T) {
	off := NewTracer(0, 0)
	if tr := off.Start(OpGet); tr != nil {
		t.Fatal("rate 0 must never sample")
	}
	var nilTracer *Tracer
	if tr := nilTracer.Start(OpGet); tr != nil {
		t.Fatal("nil tracer must never sample")
	}

	half := NewTracer(0.5, 0)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr := half.Start(OpGet); tr != nil {
			sampled++
			tr.Finish()
		}
	}
	if sampled != 50 {
		t.Fatalf("rate 0.5 sampled %d/100, want every 2nd", sampled)
	}
}

// TestNilTraceSafe: the nil no-op contract the read/write hot paths rely
// on — no clock reads, no panics, no recorded state.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	t0 := tr.Now()
	if !t0.IsZero() {
		t.Fatal("nil Now must return the zero time")
	}
	tr.Since(PhaseWALSync, t0)
	tr.Enter(PhaseWAL)
	tr.AtLevel(1)
	tr.Count(CtrBlockReads, 1)
	tr.Add(PhaseValidate, time.Second)
	tr.SetDetail("x")
	tr.Finish()
}
