package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Per-operation tracing (DESIGN.md §5.3). A Tracer samples operations at a
// configurable rate and, for each sampled operation, records how its wall
// time divides across named phases — MemTable probe, frozen-MemTable probe,
// per-level SSTable probes, block loads vs. cache hits, posting-list
// merging, candidate validation, and the write-path stages. Completed
// traces land in a bounded ring of the most recent ones (served at
// /trace/slow) and in cumulative per-op/per-phase aggregates that lsmbench
// renders as a phase-time breakdown table.
//
// Top-level phases tile an operation: Enter closes the open phase and
// opens the next at one clock read, and Finish (or Record) closes the
// last, so only the time before an operation's first Enter is
// unattributed. Sub-phases nest inside them and are timed by a Now/Since
// pair.
//
// The design is allocation-conscious: Trace objects are pooled, phase
// timings live in fixed-size arrays, and every method is safe on a nil
// *Trace or nil *Tracer so unsampled operations cost one pointer check per
// instrumentation point (Now on a nil trace does not even call time.Now).

// Op identifies the traced operation kind (the paper's Table 1 set plus
// the primary-key scan, compaction and the atomic batch).
type Op uint8

// The traced operations.
const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpLookup
	OpRangeLookup
	OpScan
	OpCompact
	OpBatch
	NumOps
)

// String returns the operation's wire name (used in JSON traces and as the
// op label of /metrics histograms).
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	case OpRangeLookup:
		return "rangelookup"
	case OpScan:
		return "scan"
	case OpCompact:
		return "compact"
	case OpBatch:
		return "batch"
	default:
		return "unknown"
	}
}

// Phase identifies one stage of an operation. Top-level phases are
// entered (Enter), so disjoint in time: their sum is the attributed share
// of an operation's wall clock. Sub-phases (block load, cache hit) nest
// inside them, timed (Since) for I/O attribution and left out of that sum.
type Phase uint8

// The phase taxonomy (DESIGN.md §5.3).
const (
	// Write-path top-level phases.
	PhaseWriteWait   Phase = iota // a core write's setup and writeMu wait, before its first other phase
	PhaseCommitWait               // follower wait in the group-commit queue
	PhaseWAL                      // WAL append (+ fsync; see the wal_sync sub-phase)
	PhaseMemInsert                // MemTable insert
	PhaseRotate                   // MemTable freeze and the handoff of its flush
	PhaseIndexUpdate              // secondary index maintenance (Eager RMW, Lazy/Composite puts)

	// Read-path top-level phases.
	PhaseMemProbe     // live MemTable probe or scan
	PhaseImmProbe     // frozen MemTable probe or scan
	PhaseL0Probe      // level-0 SSTable probes/scans
	PhaseLevelProbe   // deeper-level SSTable probes/scans
	PhaseIndexProbe   // stand-alone index table reads (Eager GET, Lazy fragments, Composite scan)
	PhasePostingMerge // posting-list decode and merge
	PhaseValidate     // candidate validation against the primary table

	// Compaction top-level phases (the OpCompact trace, DESIGN.md §5.9):
	// the job's wall time split into the writer's share and the rest.
	PhaseCompactMerge // read/decode + k-way merge + group resolution (incl. posting merges)
	PhaseCompactWrite // output encode (blocks, filters, compression) + file write + fsync

	// Sub-phases (nested inside the above; not counted toward coverage).
	PhaseBlockLoad      // data block fetched from disk
	PhaseCacheHit       // data block served by the block cache
	PhaseWALSync        // fsync portion of PhaseWAL (buffer flush + fdatasync)
	PhasePostingsDecode // posting-list codec time inside index_probe/posting_merge/index_update

	NumPhases
)

// String returns the phase's wire name.
func (p Phase) String() string {
	switch p {
	case PhaseWriteWait:
		return "write_wait"
	case PhaseCommitWait:
		return "commit_wait"
	case PhaseWAL:
		return "wal"
	case PhaseMemInsert:
		return "mem_insert"
	case PhaseRotate:
		return "rotate"
	case PhaseIndexUpdate:
		return "index_update"
	case PhaseMemProbe:
		return "mem_probe"
	case PhaseImmProbe:
		return "imm_probe"
	case PhaseL0Probe:
		return "l0_probe"
	case PhaseLevelProbe:
		return "level_probe"
	case PhaseIndexProbe:
		return "index_probe"
	case PhasePostingMerge:
		return "posting_merge"
	case PhaseValidate:
		return "validate"
	case PhaseCompactMerge:
		return "compact_merge"
	case PhaseCompactWrite:
		return "compact_write"
	case PhaseBlockLoad:
		return "block_load"
	case PhaseCacheHit:
		return "cache_hit"
	case PhaseWALSync:
		return "wal_sync"
	case PhasePostingsDecode:
		return "postings_decode"
	default:
		return "unknown"
	}
}

// TopLevel reports whether the phase counts toward wall-clock coverage.
func (p Phase) TopLevel() bool { return p < PhaseBlockLoad }

// Counter identifies one exact-count I/O statistic accumulated on a Trace.
// Unlike the process-wide IOStats counters these are per-operation: an
// EXPLAIN report (DESIGN.md §5.7) is built from one trace's counters. Six
// of them have an IOStats twin incremented at the same code site — block
// reads, cache hits, point gets, entries decoded, posting fragments
// (FragmentsMerged) and posting entries (PostingsEntriesDecoded) — and the
// per-kind golden tests assert each equals its IOStats delta for the same
// operation. The other seven exist only on traces: bloom probes, negatives
// and false positives, zone-map prunes, seq prunes, candidate blocks and
// validations.
type Counter uint8

// The counter taxonomy.
const (
	CtrBlockReads          Counter = iota // data blocks fetched from disk
	CtrCacheHits                          // data blocks served by the block cache
	CtrBloomProbes                        // bloom filters consulted (primary or secondary)
	CtrBloomNegatives                     // bloom filters that excluded a block
	CtrBloomFalsePositives                // blocks read on a bloom pass that held no match
	CtrZoneMapPrunes                      // blocks excluded by zone maps (incl. whole-file zones)
	CtrSeqPrunes                          // candidate blocks left unread: too old for a full top-K
	CtrCandidateBlocks                    // blocks that survived zone+bloom filtering
	CtrPointGets                          // SSTable point reads issued
	CtrEntriesDecoded                     // block entries decoded during point reads
	CtrPostingFragments                   // posting-list fragments fetched/merged
	CtrPostingEntries                     // posting-list entries decoded
	CtrValidations                        // GetLite validity probes / primary-table validations
	NumCounters
)

// MaxTraceLevels bounds the per-level block-access attribution array;
// deeper levels clamp into the last bucket (MaxLevels defaults to 7, so in
// practice nothing clamps).
const MaxTraceLevels = 8

// Trace accumulates the phase timings of one sampled operation. A nil
// *Trace is a valid no-op receiver — call sites never branch beyond the
// nil checks inside these methods. A Trace must not be shared across
// goroutines; parallel fan-out paths time the whole fan-out from the
// coordinating goroutine instead.
type Trace struct {
	op     Op
	detail string
	start  time.Time
	open   Phase     // the top-level phase Enter opened last
	opened time.Time // when open was entered; zero while none is open
	ns     [NumPhases]int64
	counts [NumPhases]uint32
	ctrs   [NumCounters]int64
	levels [MaxTraceLevels]int64 // block accesses attributed per LSM level
	level  uint8                 // 1 + the level AtLevel charges block accesses to; 0 none
	ioOnly int                   // >0 suppresses phase attribution (counters still record)
	tracer *Tracer
}

// StartDetached returns a trace bound to no tracer: it always records
// (regardless of any sampling rate) and Finish is a no-op, so the caller
// owns its lifetime. EXPLAIN uses detached traces to guarantee a report
// even when operation sampling is disabled.
func StartDetached(op Op) *Trace {
	return &Trace{op: op, start: time.Now()}
}

// Enter closes the open top-level phase and opens p, reading the clock
// once, and counts p once. It ends any AtLevel attribution. No-op on a
// nil trace and inside IOOnlyBegin/IOOnlyEnd.
func (tr *Trace) Enter(p Phase) {
	if tr == nil || tr.ioOnly > 0 {
		return
	}
	now := time.Now()
	tr.close(now)
	tr.open, tr.opened = p, now
	tr.counts[p]++
	tr.level = 0
}

// close charges the open phase up to now and leaves none open.
func (tr *Trace) close(now time.Time) {
	if !tr.opened.IsZero() {
		tr.ns[tr.open] += int64(now.Sub(tr.opened))
		tr.opened = time.Time{}
	}
}

// Now returns the current time for a subsequent Since, or the zero time
// when the trace is nil (avoiding the clock read entirely).
func (tr *Trace) Now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since attributes the time elapsed from t0 to the sub-phase p, which
// nests inside the open top-level phase. No-op on a nil trace or a zero
// t0 (the pair produced by a nil Now).
func (tr *Trace) Since(p Phase, t0 time.Time) {
	if tr == nil || t0.IsZero() || tr.ioOnly > 0 {
		return
	}
	tr.ns[p] += int64(time.Since(t0))
	tr.counts[p]++
}

// Add attributes d to phase p directly: a phase whose time is computed,
// not entered (a compaction's merge/write split).
func (tr *Trace) Add(p Phase, d time.Duration) {
	if tr == nil || tr.ioOnly > 0 {
		return
	}
	tr.ns[p] += int64(d)
	tr.counts[p]++
}

// IOOnlyBegin suppresses phase attribution (Enter, Since, Add) until the
// matching IOOnlyEnd; Count and AtLevel keep recording. Used when a
// traced operation nests another traced call path (the Eager index GET,
// validation's primary GET) whose own Enters would otherwise cut into
// the outer op's open phase.
//
//lsm:hotpath
func (tr *Trace) IOOnlyBegin() {
	if tr == nil {
		return
	}
	tr.ioOnly++
}

// IOOnlyEnd reverses one IOOnlyBegin.
//
//lsm:hotpath
func (tr *Trace) IOOnlyEnd() {
	if tr == nil {
		return
	}
	tr.ioOnly--
}

// Count adds n to counter c, and a block access (read or cache hit) to
// the level AtLevel set, if any. Nil-safe and allocation-free: the
// disabled path costs one pointer check.
//
//lsm:hotpath
func (tr *Trace) Count(c Counter, n int64) {
	if tr == nil {
		return
	}
	tr.ctrs[c] += n
	if tr.level > 0 && (c == CtrBlockReads || c == CtrCacheHits) {
		tr.levels[tr.level-1] += n
	}
}

// AtLevel charges the block accesses counted from here until the next
// Enter to LSM level l. Levels beyond the attribution array clamp into
// the last bucket.
//
//lsm:hotpath
func (tr *Trace) AtLevel(l int) {
	if tr == nil {
		return
	}
	tr.level = uint8(min(max(l, 0), MaxTraceLevels-1) + 1)
}

// SetDetail annotates the trace (e.g. the looked-up attribute).
func (tr *Trace) SetDetail(s string) {
	if tr == nil {
		return
	}
	tr.detail = s
}

// Finish closes the open phase and completes the trace: its times fold
// into the tracer's aggregates and the recent-trace ring, and the object
// returns to the pool. The trace must not be used afterwards.
func (tr *Trace) Finish() {
	if tr == nil || tr.tracer == nil {
		return
	}
	tr.tracer.finish(tr)
}

// Counters is the JSON form of a trace's exact I/O attribution.
type Counters struct {
	BlockReads          int64   `json:"block_reads"`
	CacheHits           int64   `json:"cache_hits"`
	BloomProbes         int64   `json:"bloom_probes"`
	BloomNegatives      int64   `json:"bloom_negatives"`
	BloomFalsePositives int64   `json:"bloom_false_positives"`
	ZoneMapPrunes       int64   `json:"zone_map_prunes"`
	SeqPrunes           int64   `json:"seq_prunes"`
	CandidateBlocks     int64   `json:"candidate_blocks"`
	PointGets           int64   `json:"point_gets"`
	EntriesDecoded      int64   `json:"entries_decoded"`
	PostingFragments    int64   `json:"posting_fragments"`
	PostingEntries      int64   `json:"posting_entries"`
	Validations         int64   `json:"validations"`
	BlocksPerLevel      []int64 `json:"blocks_per_level,omitempty"`
}

// BlockAccesses is the observed logical I/O: blocks fetched from disk plus
// blocks served by the block cache. It is the quantity compared against
// the cost model's predicted block count (the model counts logical block
// accesses; whether the OS or the block cache absorbs them is orthogonal).
func (c Counters) BlockAccesses() int64 { return c.BlockReads + c.CacheHits }

// Counters returns a snapshot of the trace's I/O counters. Zero value on a
// nil trace.
func (tr *Trace) Counters() Counters {
	if tr == nil {
		return Counters{}
	}
	c := Counters{
		BlockReads:          tr.ctrs[CtrBlockReads],
		CacheHits:           tr.ctrs[CtrCacheHits],
		BloomProbes:         tr.ctrs[CtrBloomProbes],
		BloomNegatives:      tr.ctrs[CtrBloomNegatives],
		BloomFalsePositives: tr.ctrs[CtrBloomFalsePositives],
		ZoneMapPrunes:       tr.ctrs[CtrZoneMapPrunes],
		SeqPrunes:           tr.ctrs[CtrSeqPrunes],
		CandidateBlocks:     tr.ctrs[CtrCandidateBlocks],
		PointGets:           tr.ctrs[CtrPointGets],
		EntriesDecoded:      tr.ctrs[CtrEntriesDecoded],
		PostingFragments:    tr.ctrs[CtrPostingFragments],
		PostingEntries:      tr.ctrs[CtrPostingEntries],
		Validations:         tr.ctrs[CtrValidations],
	}
	max := -1
	for l, n := range tr.levels {
		if n != 0 {
			max = l
		}
	}
	if max >= 0 {
		c.BlocksPerLevel = append([]int64(nil), tr.levels[:max+1]...)
	}
	return c
}

// Record closes the open phase and builds the TraceRecord for the trace
// as it stands, without finishing it. EXPLAIN uses this on detached
// traces to extract phase timings and I/O counters into a report.
func (tr *Trace) Record() TraceRecord {
	if tr == nil {
		return TraceRecord{}
	}
	return tr.record(tr.closeAll())
}

// closeAll closes the open phase at one clock read and returns the
// trace's total time up to it.
func (tr *Trace) closeAll() int64 {
	now := time.Now()
	tr.close(now)
	return int64(now.Sub(tr.start))
}

func (tr *Trace) record(total int64) TraceRecord {
	rec := TraceRecord{
		Op:      tr.op.String(),
		Detail:  tr.detail,
		Start:   tr.start,
		TotalUS: float64(total) / 1e3,
	}
	var attributed int64
	for p := Phase(0); p < NumPhases; p++ {
		if tr.ns[p] == 0 && tr.counts[p] == 0 {
			continue
		}
		if p.TopLevel() {
			attributed += tr.ns[p]
		}
		rec.Phases = append(rec.Phases, PhaseTime{
			Phase: p.String(),
			US:    float64(tr.ns[p]) / 1e3,
			Count: tr.counts[p],
		})
	}
	rec.AttributedUS = float64(attributed) / 1e3
	if total > 0 {
		rec.Coverage = float64(attributed) / float64(total)
	}
	for _, n := range tr.ctrs {
		if n != 0 {
			io := tr.Counters()
			rec.IO = &io
			break
		}
	}
	return rec
}

// PhaseTime is one phase entry of a completed TraceRecord.
type PhaseTime struct {
	Phase string  `json:"phase"`
	US    float64 `json:"us"`
	Count uint32  `json:"count"`
}

// TraceRecord is the JSON form of a completed trace served at /trace/slow.
type TraceRecord struct {
	Op      string    `json:"op"`
	Detail  string    `json:"detail,omitempty"`
	Start   time.Time `json:"start"`
	TotalUS float64   `json:"total_us"`
	// AttributedUS sums the top-level phases; Coverage is its share of
	// TotalUS (the quantity the trace tests assert ≥ 0.95).
	AttributedUS float64     `json:"attributed_us"`
	Coverage     float64     `json:"coverage"`
	Phases       []PhaseTime `json:"phases,omitempty"`
	// IO carries the exact per-op I/O attribution when any counter fired
	// (DESIGN.md §5.7); nil for traces with no counter activity.
	IO *Counters `json:"io,omitempty"`
}

// Tracer samples operations and collects their traces. Safe for
// concurrent use; a nil *Tracer never samples.
type Tracer struct {
	rateBits atomic.Uint64 // math.Float64bits of the configured rate
	period   atomic.Uint64 // sample every period-th op; 0 = disabled
	ctr      atomic.Uint64

	pool sync.Pool

	mu   sync.Mutex
	ring []TraceRecord // guarded by mu
	pos  int           // guarded by mu
	n    int           // guarded by mu

	aggNS    [NumOps][NumPhases]int64 // guarded by mu
	aggCount [NumOps]int64            // guarded by mu
	aggTotal [NumOps]int64            // guarded by mu
}

// DefaultTraceRing is the recent-trace ring capacity when 0 is requested.
const DefaultTraceRing = 128

// NewTracer returns a tracer sampling at rate (0 disables tracing, 1
// traces every operation, 0.01 every hundredth) keeping the ringCap most
// recent traces (0 = DefaultTraceRing).
func NewTracer(rate float64, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultTraceRing
	}
	t := &Tracer{ring: make([]TraceRecord, ringCap)}
	t.pool.New = func() interface{} { return new(Trace) }
	t.SetRate(rate)
	return t
}

// SetRate changes the sampling rate. Rates above 1 clamp to 1; rates at or
// below 0 disable sampling.
func (t *Tracer) SetRate(rate float64) {
	if rate > 1 {
		rate = 1
	}
	if rate <= 0 || math.IsNaN(rate) {
		t.rateBits.Store(math.Float64bits(0))
		t.period.Store(0)
		return
	}
	t.rateBits.Store(math.Float64bits(rate))
	t.period.Store(uint64(math.Round(1 / rate)))
}

// Rate returns the configured sampling rate.
func (t *Tracer) Rate() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.rateBits.Load())
}

// Start begins a trace for op, or returns nil when the operation is not
// sampled (including on a nil tracer). The caller must Finish it.
func (t *Tracer) Start(op Op) *Trace {
	if t == nil {
		return nil
	}
	period := t.period.Load()
	if period == 0 {
		return nil
	}
	if period > 1 && t.ctr.Add(1)%period != 0 {
		return nil
	}
	tr := t.pool.Get().(*Trace)
	*tr = Trace{op: op, start: time.Now(), tracer: t}
	return tr
}

func (t *Tracer) finish(tr *Trace) {
	total := tr.closeAll()
	rec := tr.record(total)
	t.mu.Lock()
	t.aggCount[tr.op]++
	t.aggTotal[tr.op] += total
	for p := Phase(0); p < NumPhases; p++ {
		t.aggNS[tr.op][p] += tr.ns[p]
	}
	t.ring[t.pos] = rec
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()

	*tr = Trace{}
	t.pool.Put(tr)
}

// Slow returns the recorded traces, most recent last.
func (t *Tracer) Slow() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, t.n)
	start := t.pos - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// OpBreakdown aggregates every finished trace of one operation kind: the
// cumulative per-phase time lsmbench prints as the phase breakdown table.
type OpBreakdown struct {
	Op      string      `json:"op"`
	Count   int64       `json:"count"`
	TotalUS float64     `json:"total_us"`
	Phases  []PhaseTime `json:"phases,omitempty"`
}

// Breakdown returns cumulative per-op phase totals for every operation
// that completed at least one trace.
func (t *Tracer) Breakdown() []OpBreakdown {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []OpBreakdown
	for op := Op(0); op < NumOps; op++ {
		if t.aggCount[op] == 0 {
			continue
		}
		b := OpBreakdown{
			Op:      op.String(),
			Count:   t.aggCount[op],
			TotalUS: float64(t.aggTotal[op]) / 1e3,
		}
		for p := Phase(0); p < NumPhases; p++ {
			if t.aggNS[op][p] == 0 {
				continue
			}
			b.Phases = append(b.Phases, PhaseTime{Phase: p.String(), US: float64(t.aggNS[op][p]) / 1e3})
		}
		out = append(out, b)
	}
	return out
}

// ResetBreakdown zeroes the cumulative aggregates (lsmbench calls it
// between experiments so each table covers one experiment only). The
// recent-trace ring is left intact.
func (t *Tracer) ResetBreakdown() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggNS = [NumOps][NumPhases]int64{}
	t.aggCount = [NumOps]int64{}
	t.aggTotal = [NumOps]int64{}
}
