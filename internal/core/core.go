// Package core implements LevelDB++: the five secondary indexing
// techniques of "A Comparative Study of Secondary Indexing Techniques in
// LSM-based NoSQL Databases" (SIGMOD 2018) on top of the internal/lsm
// engine.
//
// A DB stores JSON documents keyed by primary key and supports the
// paper's operation set (Table 1): GET, PUT, DEL on the primary key, plus
// LOOKUP(A, a, K) and RANGELOOKUP(A, a, b, K) on indexed secondary
// attributes, returning the K most recent matching records by insertion
// time. The index kind is chosen at open time:
//
//   - IndexNone      — no secondary structures; lookups scan everything.
//   - IndexEmbedded  — per-block bloom filters + zone maps inside the
//     primary table's SSTables (paper §3).
//   - IndexEager     — stand-alone LSM index table with read-modify-write
//     posting lists (paper §4.1.1).
//   - IndexLazy      — stand-alone LSM index table with append-only
//     posting fragments merged during compaction (paper §4.1.2).
//   - IndexComposite — stand-alone LSM index table keyed by
//     (secondary key ∥ primary key) (paper §4.2).
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leveldbpp/internal/explain"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/wal"
)

// IndexKind selects the secondary indexing technique.
type IndexKind int

// The five techniques compared by the paper, plus the no-index baseline.
const (
	IndexNone IndexKind = iota
	IndexEmbedded
	IndexEager
	IndexLazy
	IndexComposite
)

// String returns the paper's name for the technique.
func (k IndexKind) String() string {
	switch k {
	case IndexNone:
		return "NoIndex"
	case IndexEmbedded:
		return "Embedded"
	case IndexEager:
		return "Eager"
	case IndexLazy:
		return "Lazy"
	case IndexComposite:
		return "Composite"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// Options configures a LevelDB++ database.
type Options struct {
	// Index selects the secondary indexing technique.
	Index IndexKind
	// Attrs lists the secondary attributes to index: names of JSON string
	// fields of the document, top-level or dot paths into nested objects
	// (extract.go has the matching rules). Range semantics follow
	// byte-wise string order, so numeric attributes should be zero-padded
	// (see workload.EncodeTime).
	Attrs []string

	// Engine tuning (zero values take lsm defaults).
	MemTableBytes       int64
	BlockSize           int
	BitsPerKey          int
	SecondaryBitsPerKey int
	DisableCompression  bool
	L0CompactionTrigger int
	BaseLevelBytes      int64
	LevelMultiplier     int
	MaxLevels           int
	// SyncMode selects WAL durability per commit (off / always /
	// grouped) on the primary table and every index table; the zero
	// value is off. See lsm.Options.SyncMode.
	SyncMode wal.SyncMode
	// BlockCacheBytes enables an LRU block cache on the primary and
	// index tables (0 = off, the paper's configuration).
	BlockCacheBytes int64
	// BackgroundCompaction runs the flush and compaction jobs of the
	// primary table and every index table on background goroutines
	// instead of the writer (see lsm.Options.BackgroundCompaction). Off
	// by default so the paper's experiments stay deterministic.
	BackgroundCompaction bool

	// DisableGetLite makes the Embedded index validate candidates with
	// full GETs instead of the metadata-only GetLite probe (ablation;
	// paper §3 credits GetLite with "significantly reduced disk I/O").
	DisableGetLite bool
	// DisableFileZoneMap makes the Embedded index skip the file-level
	// zone map check and consult only per-block structures (ablation).
	DisableFileZoneMap bool

	// TraceSampleRate samples that fraction (0..1] of operations for
	// per-phase tracing (DESIGN.md §5.3). 0 disables tracing; sampling is
	// period-based (one in round(1/rate) operations), so rate 1 traces
	// everything. Ignored when Tracer is set.
	TraceSampleRate float64
	// SlowTraceThreshold keeps only traces at least this long in the
	// recent-trace ring (the /trace/slow endpoint); 0 keeps every sampled
	// trace. Aggregate per-phase breakdowns always include every sample.
	SlowTraceThreshold time.Duration
	// Tracer, when set, replaces the DB-owned tracer — lsmbench shares one
	// tracer across DBs to print a single breakdown per experiment.
	Tracer *metrics.Tracer
	// Events, when set, receives every engine lifecycle event in addition
	// to the DB-owned in-memory EventLog (e.g. a metrics.JSONLSink).
	Events metrics.EventSink
	// EventBufferSize caps the in-memory event ring
	// (0 = metrics.DefaultEventRing).
	EventBufferSize int
}

// Entry is one LOOKUP/RANGELOOKUP result: the record's primary key, its
// current document, and the sequence number that ranked it.
type Entry struct {
	Key   string
	Value []byte
	Seq   uint64
}

// DB is a LevelDB++ database: a primary LSM table plus, for stand-alone
// kinds, one LSM index table per indexed attribute.
type DB struct {
	opts    Options
	primary *lsm.DB
	indexes map[string]*lsm.DB // stand-alone index tables by attribute

	// writeMu serializes Put/Delete so that primary-table and index-table
	// write orders agree — Composite entries rank candidates by
	// index-table sequence number, which must follow primary insertion
	// order (paper §4.2). Only taken for stand-alone index kinds
	// (indexes != nil): None and Embedded have no second table to keep
	// in step, so their concurrent writers flow straight into the
	// engine's commit queue and can actually form groups.
	writeMu sync.Mutex

	// postBuf is the posting-list encode scratch shared by the Eager RMW
	// and Lazy fragment write paths; guarded by writeMu (always held on
	// those paths), and safe to reuse across engine Puts because the
	// engine copies values before retaining them.
	postBuf []byte // guarded by writeMu

	// Observability (DESIGN.md §5.3): per-operation phase tracing,
	// always-on per-op latency histograms, and the lifecycle event log
	// shared by the primary table and every index table.
	tracer *metrics.Tracer
	ops    *metrics.OpStats
	events *metrics.EventLog

	// profiler aggregates the live op mix, top-K/matched distributions,
	// attribute time correlation and model-drift ratios (DESIGN.md §5.7).
	profiler *explain.WorkloadProfiler
	// putCount drives the every-Nth sampling of PUT attribute values into
	// the profiler's time-correlation estimator.
	putCount atomic.Int64
}

// ErrUnknownAttr is returned by lookups on attributes that were not
// declared in Options.Attrs.
var ErrUnknownAttr = errors.New("core: attribute is not indexed")

// compositeSep separates secondary key from primary key in Composite
// index entries; attribute values must not contain it.
const compositeSep = byte(0)

// Open creates or reopens a LevelDB++ database rooted at dir. The primary
// table lives in dir/primary; stand-alone index tables in
// dir/index-<attr>.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create dir: %w", err)
	}
	attrs := append([]string(nil), opts.Attrs...)

	tracer := opts.Tracer
	if tracer == nil {
		tracer = metrics.NewTracer(opts.TraceSampleRate, 0)
	}
	if opts.SlowTraceThreshold > 0 {
		tracer.SetSlowThreshold(opts.SlowTraceThreshold)
	}
	events := metrics.NewEventLog(opts.EventBufferSize)
	events.Attach(opts.Events)

	// One engine configuration for every table; each table gets a copy
	// with its own event sink, and only the primary embeds attributes.
	base := lsm.Options{
		MemTableBytes:        opts.MemTableBytes,
		BlockSize:            opts.BlockSize,
		BitsPerKey:           opts.BitsPerKey,
		SecondaryBitsPerKey:  opts.SecondaryBitsPerKey,
		DisableCompression:   opts.DisableCompression,
		L0CompactionTrigger:  opts.L0CompactionTrigger,
		BaseLevelBytes:       opts.BaseLevelBytes,
		LevelMultiplier:      opts.LevelMultiplier,
		MaxLevels:            opts.MaxLevels,
		SyncMode:             opts.SyncMode,
		BlockCacheBytes:      opts.BlockCacheBytes,
		BackgroundCompaction: opts.BackgroundCompaction,
		Tracer:               tracer,
	}
	primaryOpts := base
	primaryOpts.Events = events.Named("primary")
	if opts.Index == IndexEmbedded {
		primaryOpts.SecondaryAttrs = attrs
		primaryOpts.Extract = func(dst []sstable.AttrValue, _, value []byte) []sstable.AttrValue {
			return appendAttrValues(dst, value, attrs)
		}
	}
	primary, err := lsm.Open(filepath.Join(dir, "primary"), &primaryOpts)
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, primary: primary,
		tracer: tracer, ops: metrics.NewOpStats(), events: events,
		profiler: explain.NewWorkloadProfiler(events)}

	switch opts.Index {
	case IndexEager, IndexLazy, IndexComposite:
		db.indexes = make(map[string]*lsm.DB, len(attrs))
		for _, attr := range attrs {
			idxOpts := base
			idxOpts.Events = events.Named("index-" + attr)
			if opts.Index == IndexLazy {
				// The mergers run inside the engine (write path and
				// compaction), so the index table's IOStats is created here
				// and injected into both the engine and the mergers.
				st := &metrics.IOStats{}
				idxOpts.Stats = st
				idxOpts.WriteMerge = newLazyWriteMerger(st)
				idxOpts.Merge = &lazyCompactionMerger{st: st}
			}
			idx, err := lsm.Open(filepath.Join(dir, "index-"+attr), &idxOpts)
			if err != nil {
				_ = primary.Close()
				for _, other := range db.indexes {
					_ = other.Close()
				}
				return nil, err
			}
			db.indexes[attr] = idx
		}
	}
	return db, nil
}

// Kind returns the database's index kind.
func (db *DB) Kind() IndexKind { return db.opts.Index }

// Get retrieves the document stored under key (Table 1: GET).
func (db *DB) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpGet)
	value, ok, err := db.primary.GetTraced([]byte(key), tr)
	var io metrics.Counters
	if tr != nil && err == nil {
		io = tr.Counters() // read before Finish returns tr to the pool
	}
	tr.Finish()
	db.ops.Observe(metrics.OpGet, time.Since(t0))
	db.profiler.RecordOp(metrics.OpGet)
	if io.PointGets > 0 && err == nil {
		db.recordModelRatio(metrics.OpGet, "", "", "", 1, io)
	}
	return value, ok, err
}

// Put writes (or overwrites) the document under key and maintains the
// secondary indexes per the configured technique (Table 1: PUT).
func (db *DB) Put(key string, value []byte) error {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpPut)
	var buf [4]attrSlot
	slots := attrSlots(&buf, len(db.opts.Attrs))
	err := db.putTraced(key, value, slots, tr)
	tr.Finish()
	db.ops.Observe(metrics.OpPut, time.Since(t0))
	db.profiler.RecordOp(metrics.OpPut)
	// Sample every 16th PUT's attribute values into the time-correlation
	// estimator — it needs consecutive-pair counts, not every write. The
	// stand-alone kinds have scanned the document already.
	if len(db.opts.Attrs) > 0 && db.putCount.Add(1)&15 == 0 {
		if db.indexes == nil {
			scanAttrs(value, db.opts.Attrs, slots)
		}
		for i, sl := range slots {
			if sl.val != nil {
				db.profiler.RecordAttrValue(db.opts.Attrs[i], string(sl.val))
			}
		}
	}
	return err
}

// putTraced writes the document and, for the stand-alone kinds, its index
// entries, leaving the document's attribute values in slots.
func (db *DB) putTraced(key string, value []byte, slots []attrSlot, tr *metrics.Trace) error {
	if db.indexes != nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	seq, err := db.primary.PutWithSeqTraced([]byte(key), value, tr)
	if err != nil || db.indexes == nil {
		return err
	}
	tI := tr.Now()
	err = db.indexWrite(key, value, slots, seq, false)
	tr.Since(metrics.PhaseIndexUpdate, tI)
	return err
}

// indexWrite maintains the stand-alone index tables for one write to the
// primary table: it scans doc into slots, and for every indexed attribute
// the document carries adds the (attribute value, key) pair to that
// attribute's table, or with del marks it deleted there. The values go
// into the index keys as they are; the engine copies a key before keeping
// it.
//
//lsm:locked — writeMu is held by putTraced, deleteTraced and Apply.
func (db *DB) indexWrite(key string, doc []byte, slots []attrSlot, seq uint64, del bool) error {
	scanAttrs(doc, db.opts.Attrs, slots)
	for i, sl := range slots {
		if sl.val == nil {
			continue
		}
		idx := db.indexes[db.opts.Attrs[i]]
		var err error
		switch db.opts.Index {
		case IndexEager:
			err = db.eagerUpdate(idx, sl.val, key, seq, del)
		case IndexLazy:
			err = db.lazyAppend(idx, sl.val, key, seq, del)
		case IndexComposite:
			err = compositeWrite(idx, sl.val, key, del)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the document under key (Table 1: DEL). For stand-alone
// indexes the old document is read first so its posting entries can be
// marked deleted.
func (db *DB) Delete(key string) error {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpDelete)
	err := db.deleteTraced(key, tr)
	tr.Finish()
	db.ops.Observe(metrics.OpDelete, time.Since(t0))
	db.profiler.RecordOp(metrics.OpDelete)
	return err
}

func (db *DB) deleteTraced(key string, tr *metrics.Trace) error {
	if db.indexes != nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	var old []byte
	if db.indexes != nil {
		tI := tr.Now()
		v, ok, err := db.primary.Get([]byte(key))
		tr.Since(metrics.PhaseIndexUpdate, tI)
		if err != nil {
			return err
		}
		if !ok {
			// Nothing indexed for this key; the primary tombstone is all
			// that is needed.
			_, err := db.primary.DeleteWithSeqTraced([]byte(key), tr)
			return err
		}
		old = v
	}
	seq, err := db.primary.DeleteWithSeqTraced([]byte(key), tr)
	if err != nil {
		return err
	}
	if db.indexes == nil {
		return nil
	}
	var buf [4]attrSlot
	slots := attrSlots(&buf, len(db.opts.Attrs))
	tI := tr.Now()
	err = db.indexWrite(key, old, slots, seq, true)
	tr.Since(metrics.PhaseIndexUpdate, tI)
	return err
}

// Lookup returns the k most recent records whose attr equals value
// (Table 1: LOOKUP). k <= 0 means no limit.
func (db *DB) Lookup(attr, value string, k int) ([]Entry, error) {
	if !db.indexed(attr) {
		return nil, ErrUnknownAttr
	}
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpLookup)
	if tr != nil {
		tr.SetDetail(attr + "=" + value + " plan=" + db.planName(metrics.OpLookup))
	}
	out, err := db.lookupTraced(attr, value, k, tr)
	var io metrics.Counters
	if tr != nil && err == nil {
		io = tr.Counters() // read before Finish returns tr to the pool
	}
	tr.Finish()
	db.ops.Observe(metrics.OpLookup, time.Since(t0))
	db.profiler.RecordQuery(metrics.OpLookup, k, len(out))
	if io.BlockAccesses() > 0 && err == nil {
		db.recordModelRatio(metrics.OpLookup, attr, value, value, len(out), io)
	}
	return out, err
}

func (db *DB) lookupTraced(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	switch db.opts.Index {
	case IndexEmbedded:
		return db.embeddedLookup(attr, value, k, tr)
	case IndexEager:
		return db.eagerLookup(attr, value, k, tr)
	case IndexLazy:
		return db.lazyLookup(attr, value, k, tr)
	case IndexComposite:
		return db.compositeLookup(attr, value, k, tr)
	default:
		return db.scanLookup(attr, value, value, k, tr)
	}
}

// RangeLookup returns the k most recent records with lo <= val(attr) <= hi
// (Table 1: RANGELOOKUP). k <= 0 means no limit.
func (db *DB) RangeLookup(attr, lo, hi string, k int) ([]Entry, error) {
	if !db.indexed(attr) {
		return nil, ErrUnknownAttr
	}
	if hi < lo {
		return nil, nil
	}
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpRangeLookup)
	if tr != nil {
		tr.SetDetail(attr + "=[" + lo + "," + hi + "] plan=" + db.planName(metrics.OpRangeLookup))
	}
	out, err := db.rangeLookupTraced(attr, lo, hi, k, tr)
	var io metrics.Counters
	if tr != nil && err == nil {
		io = tr.Counters() // read before Finish returns tr to the pool
	}
	tr.Finish()
	db.ops.Observe(metrics.OpRangeLookup, time.Since(t0))
	db.profiler.RecordQuery(metrics.OpRangeLookup, k, len(out))
	if io.BlockAccesses() > 0 && err == nil {
		db.recordModelRatio(metrics.OpRangeLookup, attr, lo, hi, len(out), io)
	}
	return out, err
}

func (db *DB) rangeLookupTraced(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	switch db.opts.Index {
	case IndexEmbedded:
		return db.embeddedRangeLookup(attr, lo, hi, k, tr)
	case IndexEager:
		return db.eagerRangeLookup(attr, lo, hi, k, tr)
	case IndexLazy:
		return db.lazyRangeLookup(attr, lo, hi, k, tr)
	case IndexComposite:
		return db.compositeRangeLookup(attr, lo, hi, k, tr)
	default:
		return db.scanLookup(attr, lo, hi, k, tr)
	}
}

func (db *DB) indexed(attr string) bool {
	for _, a := range db.opts.Attrs {
		if a == attr {
			return true
		}
	}
	return false
}

// Flush forces all MemTables (primary and index tables) to disk.
func (db *DB) Flush() error {
	if err := db.primary.Flush(); err != nil {
		return err
	}
	for _, idx := range db.indexes {
		if err := idx.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases all resources.
func (db *DB) Close() error {
	err := db.primary.Close()
	for _, idx := range db.indexes {
		if e := idx.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Stats aggregates I/O statistics for the primary table and (summed) for
// all index tables, matching the paper's per-table I/O attribution.
type Stats struct {
	Primary metrics.Snapshot
	Index   metrics.Snapshot
}

// Stats returns a snapshot of I/O counters.
func (db *DB) Stats() Stats {
	s := Stats{Primary: db.primary.Stats().Snapshot()}
	for _, idx := range db.indexes {
		is := idx.Stats().Snapshot()
		s.Index.BlockReads += is.BlockReads
		s.Index.BlockReadBytes += is.BlockReadBytes
		s.Index.BlockWrites += is.BlockWrites
		s.Index.BlockWriteBytes += is.BlockWriteBytes
		s.Index.CompactionReads += is.CompactionReads
		s.Index.CompactionReadBytes += is.CompactionReadBytes
		s.Index.CompactionWrites += is.CompactionWrites
		s.Index.CompactionWriteBytes += is.CompactionWriteBytes
		s.Index.CacheHits += is.CacheHits
		s.Index.CacheMisses += is.CacheMisses
		s.Index.PointGets += is.PointGets
		s.Index.EntriesDecoded += is.EntriesDecoded
		s.Index.BlockSeeks += is.BlockSeeks
		s.Index.PostingsBytesDecoded += is.PostingsBytesDecoded
		s.Index.PostingsEntriesDecoded += is.PostingsEntriesDecoded
		s.Index.FragmentsMerged += is.FragmentsMerged
	}
	return s
}

// CommitStats returns the commit-path counters of the primary table and
// (summed) of all index tables: commits, records, WAL write groups and
// fsyncs, from which fsyncs-per-op and mean group size derive.
func (db *DB) CommitStats() (primary, index lsm.CommitStats) {
	primary = db.primary.CommitStats()
	for _, idx := range db.indexes {
		is := idx.CommitStats()
		index.Commits += is.Commits
		index.Records += is.Records
		index.Groups += is.Groups
		index.Fsyncs += is.Fsyncs
	}
	return primary, index
}

// CompactAll drives a full manual compaction of the primary table and
// every index table — lsm.CompactRange over the unbounded range,
// surfacing any mid-merge failure (the event log carries it as a
// compaction_error event).
func (db *DB) CompactAll() error {
	if err := db.primary.CompactRange(nil, nil); err != nil {
		return fmt.Errorf("core: compact primary: %w", err)
	}
	for attr, idx := range db.indexes {
		if err := idx.CompactRange(nil, nil); err != nil {
			return fmt.Errorf("core: compact index-%s: %w", attr, err)
		}
	}
	return nil
}

// GroupSizeHists returns the commits-per-WAL-write histogram of every
// table, keyed like LevelShapes ("primary", "index-<attr>").
func (db *DB) GroupSizeHists() map[string]*metrics.Histogram {
	out := map[string]*metrics.Histogram{"primary": db.primary.GroupSizeHist()}
	for attr, idx := range db.indexes {
		out["index-"+attr] = idx.GroupSizeHist()
	}
	return out
}

// BackgroundStats returns the flush/compaction pipeline counters of the
// primary table and (summed) of all index tables (see
// lsm.BackgroundStats), including the L0 write-stall time.
func (db *DB) BackgroundStats() (primary, index lsm.BackgroundStats) {
	primary = db.primary.BackgroundStats()
	for _, idx := range db.indexes {
		is := idx.BackgroundStats()
		index.Flushes += is.Flushes
		index.Compactions += is.Compactions
		index.Slowdowns += is.Slowdowns
		index.ThrottleWaits += is.ThrottleWaits
		index.StallSeconds += is.StallSeconds
	}
	return primary, index
}

// DiskUsage reports on-disk bytes of the primary table and of all index
// tables (Figure 8a).
func (db *DB) DiskUsage() (primary, index int64, err error) {
	primary, err = db.primary.DiskUsage()
	if err != nil {
		return 0, 0, err
	}
	for _, idx := range db.indexes {
		n, err := idx.DiskUsage()
		if err != nil {
			return 0, 0, err
		}
		index += n
	}
	return primary, index, nil
}

// FilterMemoryUsage reports memory-resident filter and zone-map bytes
// (Embedded index overhead accounting).
func (db *DB) FilterMemoryUsage() int {
	n := db.primary.FilterMemoryUsage()
	for _, idx := range db.indexes {
		n += idx.FilterMemoryUsage()
	}
	return n
}

// newLazyWriteMerger returns the WriteMerger that coalesces posting
// fragments inside the MemTable so each level holds at most one fragment
// per secondary key. The streaming merge reuses one scratch across calls
// (the engine serializes write-merges per table; the mutex makes the
// closure safe regardless), but the output is always freshly allocated:
// the group-commit leader retains merged values across the rest of its
// batch, so a reused buffer would corrupt earlier records.
func newLazyWriteMerger(st *metrics.IOStats) lsm.WriteMerger {
	var mu sync.Mutex
	var sc postings.MergeScratch
	return func(existing, incoming []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		out, err := sc.Merge(nil, [][]byte{incoming, existing}, false)
		if err != nil {
			// Never drop data on decode problems; newest fragment wins.
			return incoming
		}
		st.PostingsBytesDecoded.Add(sc.BytesDecoded())
		st.PostingsEntriesDecoded.Add(sc.EntriesDecoded())
		st.FragmentsMerged.Add(sc.FragmentsMerged())
		return out
	}
}

// lazyCompactionMerger merges fragments scattered across levels during
// index-table compaction (paper §4.1.2: "During merge compaction, we
// merge these fragmented lists"). The engine merges only through a
// per-job fork (ForkMerger), so one goroutine uses a merger's scratch,
// and the output buffer is reused across calls: the engine copies a
// merged value before the next Merge runs.
type lazyCompactionMerger struct {
	st  *metrics.IOStats
	sc  postings.MergeScratch
	buf []byte
}

func (m *lazyCompactionMerger) Merge(_ []byte, values [][]byte, bottom bool) ([]byte, bool) {
	out, err := m.sc.Merge(m.buf[:0], values, bottom)
	if err != nil {
		return m.mergeSalvage(values, bottom)
	}
	m.buf = out
	m.st.PostingsBytesDecoded.Add(m.sc.BytesDecoded())
	m.st.PostingsEntriesDecoded.Add(m.sc.EntriesDecoded())
	m.st.FragmentsMerged.Add(m.sc.FragmentsMerged())
	if m.sc.EntriesEmitted() == 0 {
		return nil, false
	}
	return out, true
}

// ForkMerger implements lsm.MergerForker: each compaction job gets a
// private MergeScratch and output buffer, dropped when the job ends, while
// the shared IOStats keeps aggregating decode counters (its fields are
// atomic).
func (m *lazyCompactionMerger) ForkMerger() lsm.Merger {
	return &lazyCompactionMerger{st: m.st}
}

// mergeSalvage preserves the seed behaviour when a fragment is corrupt:
// skip the undecodable fragments and merge the rest, rather than failing
// the whole compaction.
func (m *lazyCompactionMerger) mergeSalvage(values [][]byte, bottom bool) ([]byte, bool) {
	frags := make([]postings.List, 0, len(values))
	for _, v := range values {
		l, err := postings.Decode(v)
		if err != nil {
			continue
		}
		frags = append(frags, l)
	}
	merged := postings.Merge(frags, bottom)
	if len(merged) == 0 {
		return nil, false
	}
	return postings.AppendList(nil, merged), true
}

// Verify audits the primary table and every index table: full checksum
// scan, ordering, and level-shape checks (see lsm.Verify). The returned
// map is keyed by table name ("primary" or "index-<attr>").
func (db *DB) Verify() (map[string]lsm.VerifyReport, error) {
	out := map[string]lsm.VerifyReport{}
	rep, err := db.primary.Verify()
	if err != nil {
		return nil, err
	}
	out["primary"] = rep
	for attr, idx := range db.indexes {
		rep, err := idx.Verify()
		if err != nil {
			return nil, err
		}
		out["index-"+attr] = rep
	}
	return out, nil
}

// DebugString renders the level shape of the primary table and each
// index table.
func (db *DB) DebugString() string {
	s := "primary:\n" + indent(db.primary.DebugString())
	for attr, idx := range db.indexes {
		s += "index-" + attr + ":\n" + indent(idx.DebugString())
	}
	return s
}

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += "  " + line + "\n"
	}
	return out
}

// LastSeq returns the primary table's most recent sequence number.
func (db *DB) LastSeq() uint64 { return db.primary.LastSeq() }

// Tracer returns the DB's operation tracer (never nil; disabled unless
// Options.TraceSampleRate or Options.Tracer was set).
func (db *DB) Tracer() *metrics.Tracer { return db.tracer }

// OpStats returns the always-on per-operation latency histograms.
func (db *DB) OpStats() *metrics.OpStats { return db.ops }

// EventLog returns the in-memory lifecycle event log shared by the
// primary table and every index table.
func (db *DB) EventLog() *metrics.EventLog { return db.events }

// Profiler returns the DB's live workload profiler (never nil).
func (db *DB) Profiler() *explain.WorkloadProfiler { return db.profiler }

// Health reports the first unhealthy condition across the primary table
// and every index table (lsm.ErrClosed, lsm.ErrStalled, or a sticky
// background-pipeline error), or nil when all tables serve normally.
func (db *DB) Health() error {
	if err := db.primary.Health(); err != nil {
		return err
	}
	for _, idx := range db.indexes {
		if err := idx.Health(); err != nil {
			return err
		}
	}
	return nil
}

// LevelShapes returns the per-level shape of every table, keyed by table
// name ("primary", "index-<attr>") — the tree gauges served at /metrics.
func (db *DB) LevelShapes() map[string][]lsm.LevelInfo {
	out := map[string][]lsm.LevelInfo{"primary": db.primary.LevelShape()}
	for attr, idx := range db.indexes {
		out["index-"+attr] = idx.LevelShape()
	}
	return out
}

// WriteAmplification reports measured write amplification. primary is
// the primary table's physical WAMF. index maps each stand-alone index
// attribute to the bytes written to its index table (flushes +
// compactions) per byte of user data ingested into the primary table —
// the quantity whose Eager-vs-Lazy ratio Table 5 models as
// PL_S·22(L−1) vs 22(L−1).
func (db *DB) WriteAmplification() (primary float64, index map[string]float64) {
	index = map[string]float64{}
	ps := db.primary.Stats().Snapshot()
	primaryIngest := float64(ps.BlockWriteBytes) // lower bound when 0 ingest info
	primary = db.primary.WriteAmplification()
	// Recover the true ingest denominator from the primary's WAMF.
	if primary > 0 {
		primaryIngest = float64(ps.BlockWriteBytes+ps.CompactionWriteBytes) / primary
	}
	for attr, idx := range db.indexes {
		is := idx.Stats().Snapshot()
		if primaryIngest > 0 {
			index[attr] = float64(is.BlockWriteBytes+is.CompactionWriteBytes) / primaryIngest
		}
	}
	return primary, index
}

// Checkpoint writes a consistent, openable copy of the whole database
// (primary table and all index tables) under destDir. Writers are
// blocked for the duration, so the copies are mutually consistent.
func (db *DB) Checkpoint(destDir string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.primary.Checkpoint(filepath.Join(destDir, "primary")); err != nil {
		return err
	}
	for attr, idx := range db.indexes {
		if err := idx.Checkpoint(filepath.Join(destDir, "index-"+attr)); err != nil {
			return err
		}
	}
	return nil
}

// CompactRange forces the user-key range [lo, hi] (empty strings =
// unbounded) of the primary table down to its resting level, and fully
// compacts every index table. Useful after bulk loads and deletes.
func (db *DB) CompactRange(lo, hi string) error {
	var loB, hiB []byte
	if lo != "" {
		loB = []byte(lo)
	}
	if hi != "" {
		hiB = []byte(hi)
	}
	if err := db.primary.CompactRange(loB, hiB); err != nil {
		return err
	}
	for _, idx := range db.indexes {
		if err := idx.CompactRange(nil, nil); err != nil {
			return err
		}
	}
	return nil
}
