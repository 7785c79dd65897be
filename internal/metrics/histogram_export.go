package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Prometheus text-format export (DESIGN.md §5.3). Every exported series
// uses the lsmpp_ prefix. Histograms follow the Prometheus histogram
// convention: cumulative _bucket{le="..."} series ending in le="+Inf",
// plus _sum and _count.

// ExpBuckets returns n exponential bucket upper bounds starting at start
// and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 1µs to ~8s (doubling), in seconds — wide enough
// for a cache-hit GET and a compaction-stalled PUT alike.
var DefLatencyBuckets = ExpBuckets(1e-6, 2, 24)

// BucketHistogram is the /metrics histogram: a count per bucket, a total
// count and a sum, all atomic. It keeps no samples and takes no lock, so
// an operation or a commit leader under lsm.DB.mu records into it without
// waiting on a scrape. Box plots, which need samples, use Histogram.
type BucketHistogram struct {
	bounds  []float64      // sorted upper bounds; immutable
	buckets []atomic.Int64 // buckets[i] counts bounds[i-1] < v <= bounds[i]
	count   atomic.Int64
	sum     atomic.Uint64 // math.Float64bits of the running sum
}

// NewBucketHistogram returns a histogram over the given upper bounds.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	h := &BucketHistogram{bounds: append([]float64(nil), bounds...)}
	sort.Float64s(h.bounds)
	h.buckets = make([]atomic.Int64, len(h.bounds))
	return h
}

// Observe records one value. The total count is bumped before the bucket,
// and WritePrometheus reads the buckets before the count, so a concurrent
// scrape never sees a bucket above +Inf.
//
//lsm:hotpath
func (h *BucketHistogram) Observe(v float64) {
	h.count.Add(1)
	// v above every bound is counted only by the count (the +Inf bucket).
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *BucketHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// promEscape escapes a label value per the Prometheus text format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Labels renders a label set as {k="v",...}, keys sorted; empty for none.
func Labels(kv map[string]string) string {
	if len(kv) == 0 {
		return ""
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `%s="%s"`, k, promEscape(kv[k]))
	}
	sb.WriteString("}")
	return sb.String()
}

// WriteMetricHeader emits the # HELP and # TYPE lines for name.
func WriteMetricHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample emits one sample line. labels is pre-rendered (see Labels).
func WriteSample(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s%s %v\n", name, labels, v)
}

// WritePrometheus renders the histogram as a Prometheus histogram named
// name with the given extra labels. The caller emits the HELP/TYPE header
// once per name (several label sets may share it).
func (h *BucketHistogram) WritePrometheus(w io.Writer, name string, labels map[string]string) {
	base := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		base[k] = v
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		base["le"] = fmt.Sprintf("%g", b)
		WriteSample(w, name+"_bucket", Labels(base), float64(cum))
	}
	count := h.Count()
	base["le"] = "+Inf"
	WriteSample(w, name+"_bucket", Labels(base), float64(count))
	delete(base, "le")
	WriteSample(w, name+"_sum", Labels(base), h.Sum())
	WriteSample(w, name+"_count", Labels(base), float64(count))
}

// OpStats records one latency histogram per operation kind, in seconds
// with DefLatencyBuckets — the per-operation histograms served at
// /metrics as lsmpp_op_latency_seconds{op="..."}.
type OpStats struct {
	hist [NumOps]*BucketHistogram
}

// NewOpStats returns a ready OpStats.
func NewOpStats() *OpStats {
	s := &OpStats{}
	for i := range s.hist {
		s.hist[i] = NewBucketHistogram(DefLatencyBuckets)
	}
	return s
}

// Observe records one operation latency.
func (s *OpStats) Observe(op Op, d time.Duration) {
	if s == nil {
		return
	}
	s.hist[op].Observe(d.Seconds())
}

// Hist returns the histogram for op.
func (s *OpStats) Hist(op Op) *BucketHistogram {
	if s == nil {
		return nil
	}
	return s.hist[op]
}
