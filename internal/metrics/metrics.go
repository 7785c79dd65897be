// Package metrics provides the measurement primitives behind every figure
// in the study: atomic I/O counters (the paper reports cumulative disk I/O,
// Figures 9c and 13–15), latency histograms with quartiles and whiskers
// (the box-and-whisker plots of Figures 10–11), and cumulative series.
package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// IOStats is one table's counter set. The engine counts logical
// disk-block I/O at every block boundary, so experiments measure
// algorithmic I/O exactly, independent of OS caching (see DESIGN.md §3);
// the commit path adds its counts once per commit group. Every field has
// a Snapshot field of the same name and one IOCounters row.
type IOStats struct {
	BlockReads           atomic.Int64 // data/index block reads on the read path
	BlockReadBytes       atomic.Int64
	BlockWrites          atomic.Int64 // block writes from memtable flushes
	BlockWriteBytes      atomic.Int64
	CompactionReads      atomic.Int64 // block reads performed by compactions
	CompactionReadBytes  atomic.Int64
	CompactionWrites     atomic.Int64 // block writes performed by compactions
	CompactionWriteBytes atomic.Int64
	CacheHits            atomic.Int64 // block reads served from the block cache
	CacheMisses          atomic.Int64
	PointGets            atomic.Int64 // sstable point reads (Table.GetWith calls)
	EntriesDecoded       atomic.Int64 // block entries decoded on the point-read path
	BlockSeeks           atomic.Int64 // in-block restart-array binary searches

	// Posting-list codec counters (DESIGN.md §5.6): decode work performed
	// by the stand-alone index paths (Eager RMW, Lazy merge, LOOKUP).
	PostingsBytesDecoded   atomic.Int64 // encoded posting-list bytes consumed
	PostingsEntriesDecoded atomic.Int64 // posting entries materialized or cursor-stepped
	FragmentsMerged        atomic.Int64 // posting-list fragments fed into merges

	// Write-path counters (DESIGN.md §5.5).
	Commits       atomic.Int64 // logical commits acknowledged
	CommitRecords atomic.Int64 // records across all commits
	CommitGroups  atomic.Int64 // WAL write passes (a lone writer is a group of one)
	WALFsyncs     atomic.Int64 // fsyncs issued by the commit path
	IngestBytes   atomic.Int64 // user key+value bytes committed: the WAMF denominator
}

// Snapshot is a point-in-time copy of IOStats.
type Snapshot struct {
	BlockReads, BlockReadBytes             int64
	BlockWrites, BlockWriteBytes           int64
	CompactionReads, CompactionReadBytes   int64
	CompactionWrites, CompactionWriteBytes int64
	CacheHits, CacheMisses                 int64
	PointGets, EntriesDecoded, BlockSeeks  int64

	PostingsBytesDecoded, PostingsEntriesDecoded, FragmentsMerged int64

	Commits, CommitRecords, CommitGroups, WALFsyncs, IngestBytes int64
}

// IOCounter declares one per-table counter: its field, named alike in
// IOStats and Snapshot, and the /metrics counter family it is exported as
// with a table="primary"|"index" label.
type IOCounter struct {
	Field, Name, Help string

	io, sn int // the field's index in IOStats and in Snapshot
}

// IOCounters is the one declaration of every IOStats counter. Snapshot,
// Sub, Add and the /metrics export walk it; /stats serves Snapshot's
// fields, which are the rows' fields.
var IOCounters = []IOCounter{
	{Field: "BlockReads", Name: "lsmpp_block_reads_total", Help: "Data/index block reads on the read path."},
	{Field: "BlockReadBytes", Name: "lsmpp_block_read_bytes_total", Help: "Bytes of blocks read on the read path."},
	{Field: "BlockWrites", Name: "lsmpp_block_writes_total", Help: "Block writes from memtable flushes."},
	{Field: "BlockWriteBytes", Name: "lsmpp_block_write_bytes_total", Help: "Bytes of blocks written by flushes."},
	{Field: "CompactionReads", Name: "lsmpp_compaction_reads_total", Help: "Block reads performed by compactions."},
	{Field: "CompactionReadBytes", Name: "lsmpp_compaction_read_bytes_total", Help: "Bytes read by compactions."},
	{Field: "CompactionWrites", Name: "lsmpp_compaction_writes_total", Help: "Block writes performed by compactions."},
	{Field: "CompactionWriteBytes", Name: "lsmpp_compaction_write_bytes_total", Help: "Bytes written by compactions."},
	{Field: "CacheHits", Name: "lsmpp_block_cache_hits_total", Help: "Block reads served from the block cache."},
	{Field: "CacheMisses", Name: "lsmpp_block_cache_misses_total", Help: "Block reads that missed the block cache."},
	{Field: "PointGets", Name: "lsmpp_point_gets_total", Help: "SSTable point reads (Table.GetWith calls)."},
	{Field: "EntriesDecoded", Name: "lsmpp_entries_decoded_total", Help: "Block entries decoded on the point-read path."},
	{Field: "BlockSeeks", Name: "lsmpp_block_seeks_total", Help: "In-block restart-array binary searches."},
	{Field: "PostingsBytesDecoded", Name: "lsmpp_postings_bytes_decoded_total", Help: "Encoded posting-list bytes consumed by index paths."},
	{Field: "PostingsEntriesDecoded", Name: "lsmpp_postings_entries_decoded_total", Help: "Posting entries decoded by index paths."},
	{Field: "FragmentsMerged", Name: "lsmpp_postings_fragments_merged_total", Help: "Posting-list fragments fed into merges."},
	{Field: "Commits", Name: "lsmpp_commits_total", Help: "Logical commits acknowledged by the write path."},
	{Field: "CommitRecords", Name: "lsmpp_commit_records_total", Help: "Records written across all commits."},
	{Field: "CommitGroups", Name: "lsmpp_commit_groups_total", Help: "WAL write passes (commit groups; a lone writer is a group of 1)."},
	{Field: "WALFsyncs", Name: "lsmpp_wal_fsyncs_total", Help: "fsyncs issued by the commit path."},
	{Field: "IngestBytes", Name: "lsmpp_ingest_bytes_total", Help: "User key+value bytes committed (the write-amplification denominator)."},
}

func init() {
	io, sn := reflect.TypeFor[IOStats](), reflect.TypeFor[Snapshot]()
	for i := range IOCounters {
		c := &IOCounters[i]
		f, ok := io.FieldByName(c.Field)
		g, ok2 := sn.FieldByName(c.Field)
		if !ok || !ok2 {
			panic("metrics: IOCounters row " + c.Field + " has no IOStats or Snapshot field")
		}
		c.io, c.sn = f.Index[0], g.Index[0]
	}
}

// Value returns the counter's value in sn.
func (c IOCounter) Value(sn Snapshot) float64 {
	return float64(reflect.ValueOf(sn).Field(c.sn).Int())
}

// Snapshot returns a consistent-enough copy for reporting (fields are read
// individually; exactness across fields is not required by any experiment).
func (s *IOStats) Snapshot() Snapshot {
	var sn Snapshot
	src, dst := reflect.ValueOf(s).Elem(), reflect.ValueOf(&sn).Elem()
	for _, c := range IOCounters {
		dst.Field(c.sn).SetInt(src.Field(c.io).Addr().Interface().(*atomic.Int64).Load())
	}
	return sn
}

// Sub returns sn - other, counter by counter, for interval measurements.
func (sn Snapshot) Sub(other Snapshot) Snapshot { return sn.plus(other, -1) }

// Add returns sn + other, counter by counter: the counts of two tables
// taken together.
func (sn Snapshot) Add(other Snapshot) Snapshot { return sn.plus(other, 1) }

func (sn Snapshot) plus(other Snapshot, sign int64) Snapshot {
	dst, src := reflect.ValueOf(&sn).Elem(), reflect.ValueOf(other)
	for _, c := range IOCounters {
		f := dst.Field(c.sn)
		f.SetInt(f.Int() + sign*src.Field(c.sn).Int())
	}
	return sn
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// EntriesDecodedPerGet returns the mean number of block entries decoded
// per point read — the cost the restart-point block format (DESIGN.md
// §5.2) cuts from a half-block linear scan to at most one restart
// interval. 0 when no point reads were recorded.
func (sn Snapshot) EntriesDecodedPerGet() float64 { return ratio(sn.EntriesDecoded, sn.PointGets) }

// CacheHitRatio returns the fraction of block reads served from the block
// cache, 0 when no block was read.
func (sn Snapshot) CacheHitRatio() float64 { return ratio(sn.CacheHits, sn.CacheHits+sn.CacheMisses) }

// FsyncsPerCommit returns fsyncs divided by commits (0 before any commit),
// the amortization group commit buys under SyncGrouped.
func (sn Snapshot) FsyncsPerCommit() float64 { return ratio(sn.WALFsyncs, sn.Commits) }

// WriteAmplification returns the measured physical write amplification:
// SSTable bytes written (flushes + compactions) divided by user bytes
// ingested; 0 before any ingest. It deviates from the paper's logical
// WAMF (Table 5) in two ways: block compression can push it below 1, and
// for an index table written by read-modify-write the denominator counts
// the rewritten value, not the logical record. core.DB.WriteAmplification
// gives the paper's per-user-byte comparison.
func (sn Snapshot) WriteAmplification() float64 {
	return ratio(sn.BlockWriteBytes+sn.CompactionWriteBytes, sn.IngestBytes)
}

// TotalIO returns all block operations (reads + writes, foreground and
// compaction), the paper's "cumulative number of disk I/O".
func (sn Snapshot) TotalIO() int64 {
	return sn.BlockReads + sn.BlockWrites + sn.CompactionReads + sn.CompactionWrites
}

// CompactionIO returns compaction-attributed block operations.
func (sn Snapshot) CompactionIO() int64 { return sn.CompactionReads + sn.CompactionWrites }

// Histogram collects latency (or any scalar) samples and reports the
// five-number summary used in the paper's box plots. It keeps every sample
// up to a cap, then switches to uniform reservoir sampling, preserving
// unbiased quantile estimates for arbitrarily long runs. The /metrics
// histograms, which need no samples, are BucketHistograms.
type Histogram struct {
	mu      sync.Mutex
	samples []float64 // guarded by mu
	sorted  bool      // guarded by mu
	count   int64     // guarded by mu
	sum     float64   // guarded by mu
	cap     int
	rnd     *rand.Rand // guarded by mu
}

// NewHistogram returns a histogram retaining at most capSamples raw values
// (0 means the default of 100 000).
func NewHistogram(capSamples int) *Histogram {
	if capSamples <= 0 {
		capSamples = 100000
	}
	return &Histogram{cap: capSamples, rnd: rand.New(rand.NewSource(1))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
	} else if j := h.rnd.Int63n(h.count); j < int64(h.cap) {
		h.samples[j] = v
	}
	h.sorted = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.count }

// Mean returns the arithmetic mean of all observations (not just retained
// samples).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from retained
// samples using linear interpolation.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return h.samples[n-1]
	}
	return h.samples[lo]*(1-frac) + h.samples[lo+1]*frac
}

// BoxPlot is the five-number summary drawn in Figures 10–11: quartile
// boundaries plus whiskers at the most distant points within 1.5×IQR of
// the box, exactly as the paper describes its plots.
type BoxPlot struct {
	WhiskerLow  float64
	Q1          float64
	Median      float64
	Q3          float64
	WhiskerHigh float64
	Mean        float64
	Count       int64
}

// BoxPlot computes the summary.
func (h *Histogram) BoxPlot() BoxPlot {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := BoxPlot{Count: h.count}
	if h.count == 0 {
		return b
	}
	b.Q1 = h.quantileLocked(0.25)
	b.Median = h.quantileLocked(0.5)
	b.Q3 = h.quantileLocked(0.75)
	b.Mean = h.sum / float64(h.count)
	iqr := b.Q3 - b.Q1
	loFence, hiFence := b.Q1-1.5*iqr, b.Q3+1.5*iqr
	b.WhiskerLow, b.WhiskerHigh = b.Q3, b.Q1
	for _, v := range h.samples {
		if v >= loFence && v < b.WhiskerLow {
			b.WhiskerLow = v
		}
		if v <= hiFence && v > b.WhiskerHigh {
			b.WhiskerHigh = v
		}
	}
	return b
}
