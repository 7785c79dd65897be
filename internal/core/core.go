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
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leveldbpp/internal/explain"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/vfs"
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

// ParseIndexKind parses a kind's name, case-insensitively: its String()
// or, for IndexNone, "none".
func ParseIndexKind(s string) (IndexKind, error) {
	name := strings.ToLower(s)
	for k := IndexNone; k <= IndexComposite; k++ {
		if name == strings.ToLower(k.String()) {
			return k, nil
		}
	}
	if name == "none" {
		return IndexNone, nil
	}
	return 0, fmt.Errorf("unknown index kind %q", s)
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
	// SyncMode selects WAL durability per commit (off / grouped) on the
	// primary table and every index table; the zero value is off. See
	// lsm.Options.SyncMode.
	SyncMode wal.SyncMode
	// BlockCacheBytes enables an LRU block cache of this capacity on
	// each table: the primary and every index table get a cache of their
	// own, so a database with two indexed attributes holds up to three
	// times this (0 = off, the paper's configuration).
	BlockCacheBytes int64

	// DisableGetLite makes the Embedded index validate candidates with
	// full GETs instead of the metadata-only GetLite probe (ablation;
	// paper §3 credits GetLite with "significantly reduced disk I/O").
	DisableGetLite bool
	// DisableFileZoneMap makes the Embedded index skip the file-level
	// zone map check and consult only per-block structures (ablation).
	DisableFileZoneMap bool

	// Tracer samples operations for per-phase tracing (DESIGN.md §5.3),
	// at the rate it was made with (metrics.NewTracer). lsmbench shares
	// one tracer across DBs to print a single breakdown per experiment.
	// Nil gives the DB a tracer of its own that samples nothing.
	Tracer *metrics.Tracer
	// Events, when set, receives every engine lifecycle event in addition
	// to the DB-owned in-memory EventLog (e.g. a metrics.JSONLSink).
	Events metrics.EventSink
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
	fs      vfs.FS // every table's and the descriptor's file system
	primary *lsm.DB
	indexes map[string]*lsm.DB // stand-alone index tables by attribute
	// tables lists every table in a fixed order: the primary, then the
	// index tables in Options.Attrs order. Every per-table loop walks it,
	// so listings and first errors do not depend on map order.
	tables []table

	// writeMu serializes write so that the primary's next seqs can be
	// reserved: a write's index records are committed at the seqs its
	// primary records then take, and every index table's records follow
	// primary insertion order. Only taken for stand-alone index
	// kinds (indexes != nil): None and Embedded have no second table to
	// keep in step, so their concurrent writers flow straight into the
	// engine's commit queue and can actually form groups.
	writeMu sync.Mutex

	// seqFloor bounds the postings of index records written before index
	// records carried their primary record's seq: it is the primary's
	// LastSeq when this engine first opened the database (0 for one it
	// created), persisted in descriptorFile. A posting RANGELOOKUP bounds a
	// table by max(MaxSeq, seqFloor), which stays sound for tables that
	// hold such records.
	seqFloor uint64

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

	// profiler aggregates top-K/matched distributions, attribute time
	// correlation and model-drift ratios, and reads the op mix from ops
	// (DESIGN.md §5.7).
	profiler *explain.WorkloadProfiler
	// putCount drives the every-Nth sampling of PUT attribute values into
	// the profiler's time-correlation estimator.
	putCount atomic.Int64
}

// table is one of the DB's LSM tables.
type table struct {
	name string // "primary" or "index-<attr>": its directory and report key
	attr string // the indexed attribute; "" for the primary
	db   *lsm.DB
}

// ErrUnknownAttr is returned by lookups on attributes that were not
// declared in Options.Attrs.
var ErrUnknownAttr = errors.New("core: attribute is not indexed")

// compositeSep separates secondary key from primary key in Composite
// index entries; attribute values must not contain it.
const compositeSep = byte(0)

// Open creates or reopens a LevelDB++ database rooted at dir. The primary
// table lives in dir/primary; stand-alone index tables in
// dir/index-<attr>. A database records its index kind and attribute list
// in dir/DESCRIPTOR when it is created, and opens only with the same
// kind and the same attributes in the same order: any other Options
// fail before anything is opened. A database without a descriptor
// (written before databases recorded their index) records opts. An
// attribute name may not contain a path separator: it names a directory.
func Open(dir string, opts Options) (*DB, error) { return open(dir, opts, vfs.Default) }

// open is Open with every file of the database on fs.
func open(dir string, opts Options, fs vfs.FS) (*DB, error) {
	for i, a := range opts.Attrs {
		if a == "" {
			return nil, fmt.Errorf("core: attribute %q: empty name", a)
		}
		if strings.ContainsAny(a, "/"+string(filepath.Separator)) {
			return nil, fmt.Errorf("core: attribute %q: contains a path separator", a)
		}
		if slices.Contains(opts.Attrs[:i], a) {
			return nil, fmt.Errorf("core: attribute %q: listed twice", a)
		}
	}
	desc, described, err := readDescriptor(fs, dir)
	if err != nil {
		return nil, err
	}
	if described && (desc.Index != opts.Index.String() || !slices.Equal(desc.Attrs, opts.Attrs)) {
		return nil, fmt.Errorf("core: %s holds a %s index on %q; opened as %v on %q",
			dir, desc.Index, desc.Attrs, opts.Index, opts.Attrs)
	}
	attrs := append([]string(nil), opts.Attrs...)

	tracer := opts.Tracer
	if tracer == nil {
		tracer = metrics.NewTracer(0, 0)
	}
	events := metrics.NewEventLog(0)
	events.Attach(opts.Events)

	// One engine configuration for every table; each table gets a copy
	// with its own event sink, and only the primary embeds attributes.
	base := lsm.Options{
		MemTableBytes:       opts.MemTableBytes,
		BlockSize:           opts.BlockSize,
		BitsPerKey:          opts.BitsPerKey,
		SecondaryBitsPerKey: opts.SecondaryBitsPerKey,
		DisableCompression:  opts.DisableCompression,
		L0CompactionTrigger: opts.L0CompactionTrigger,
		BaseLevelBytes:      opts.BaseLevelBytes,
		LevelMultiplier:     opts.LevelMultiplier,
		MaxLevels:           opts.MaxLevels,
		SyncMode:            opts.SyncMode,
		BlockCacheBytes:     opts.BlockCacheBytes,
		Tracer:              tracer,
		FS:                  fs,
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
	ops := metrics.NewOpStats()
	db := &DB{opts: opts, fs: fs, primary: primary,
		tables: []table{{name: "primary", db: primary}},
		tracer: tracer, ops: ops, events: events,
		profiler: explain.NewWorkloadProfiler(ops, events)}

	switch opts.Index {
	case IndexEager, IndexLazy, IndexComposite:
		db.indexes = make(map[string]*lsm.DB, len(attrs))
		for _, attr := range attrs {
			idxOpts := base
			idxOpts.Events = events.Named("index-" + attr)
			if opts.Index == IndexLazy {
				// The merger runs inside the engine (flush and
				// compaction), so the index table's IOStats is created here
				// and injected into both the engine and the merger.
				st := &metrics.IOStats{}
				idxOpts.Stats = st
				idxOpts.NewMerger = func() lsm.Merger { return &lazyMerger{st: st} }
			}
			idx, err := lsm.Open(filepath.Join(dir, "index-"+attr), &idxOpts)
			if err != nil {
				_ = db.Close()
				return nil, err
			}
			db.indexes[attr] = idx
			db.tables = append(db.tables, table{name: "index-" + attr, attr: attr, db: idx})
			// A crash between a write's index records and its primary
			// record leaves seqs the primary never took: never reuse them.
			primary.AdvanceSeq(idx.LastSeq())
		}
	}
	db.seqFloor = desc.SeqFloor
	if !described {
		if db.seqFloor, err = db.adoptDescriptor(dir); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	return db, nil
}

// descriptorFile names the file in a database's directory that records
// what every later Open is checked against, the index kind and the
// attribute list the database was created with, and DB.seqFloor.
const descriptorFile = "DESCRIPTOR"

// legacySeqFloorFile held DB.seqFloor before the descriptor did.
const legacySeqFloorFile = "SEQFLOOR"

// descriptor is the content of descriptorFile.
type descriptor struct {
	Index    string   `json:"index"` // IndexKind.String()
	Attrs    []string `json:"attrs"`
	SeqFloor uint64   `json:"seq_floor"`
}

// readDescriptor returns dir's descriptor on fs, or ok false if it has
// none.
func readDescriptor(fs vfs.FS, dir string) (d descriptor, ok bool, err error) {
	data, err := vfs.ReadFile(fs, filepath.Join(dir, descriptorFile))
	if errors.Is(err, os.ErrNotExist) {
		return d, false, nil
	}
	if err == nil {
		err = json.Unmarshal(data, &d)
	}
	if err != nil {
		return d, false, fmt.Errorf("core: %s: %w", descriptorFile, err)
	}
	return d, true, nil
}

// ReadDescriptor returns the index kind and the attributes the database
// in dir was created with. ok is false when dir records none: it is new,
// or it was written before databases recorded their index, and the next
// Open records its Options.
func ReadDescriptor(dir string) (kind IndexKind, attrs []string, ok bool, err error) {
	d, ok, err := readDescriptor(vfs.Default, dir)
	if ok {
		kind, err = ParseIndexKind(d.Index)
	}
	return kind, d.Attrs, ok, err
}

// adoptDescriptor records db's Options in dir, which has no descriptor,
// and returns the seq floor it records: a SEQFLOOR file's number, which
// it then removes, or else the primary's LastSeq for a stand-alone kind
// (0 for a database this Open created) and 0 for the others.
func (db *DB) adoptDescriptor(dir string) (uint64, error) {
	d := descriptor{Index: db.opts.Index.String(), Attrs: db.opts.Attrs}
	legacy := filepath.Join(dir, legacySeqFloorFile)
	data, err := vfs.ReadFile(db.fs, legacy)
	switch {
	case err == nil:
		d.SeqFloor, err = strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	case errors.Is(err, os.ErrNotExist):
		err = nil
		if db.indexes != nil {
			d.SeqFloor = db.primary.LastSeq()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", legacySeqFloorFile, err)
	}
	if err := writeDescriptor(db.fs, dir, d); err != nil {
		return 0, err
	}
	if err := db.fs.Remove(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("core: %s: %w", legacySeqFloorFile, err)
	}
	return d.SeqFloor, nil
}

// writeDescriptor persists d in dir on fs, atomically.
func writeDescriptor(fs vfs.FS, dir string, d descriptor) error {
	data, _ := json.Marshal(d) // strings and a number: cannot fail
	if err := vfs.WriteFile(fs, filepath.Join(dir, descriptorFile), append(data, '\n')); err != nil {
		return fmt.Errorf("core: %s: %w", descriptorFile, err)
	}
	return nil
}

// Kind returns the database's index kind.
func (db *DB) Kind() IndexKind { return db.opts.Index }

// Attrs returns a copy of the database's indexed attributes, in
// Options.Attrs order.
func (db *DB) Attrs() []string { return slices.Clone(db.opts.Attrs) }

// Get retrieves the document stored under key (Table 1: GET).
func (db *DB) Get(key string) ([]byte, bool, error) {
	value, ok, _, err := db.get(key, false)
	return value, ok, err
}

// ExplainGet is Get with its EXPLAIN report (DESIGN.md §5.7).
func (db *DB) ExplainGet(key string) ([]byte, bool, *explain.Report, error) {
	return db.get(key, true)
}

// get is GET and EXPLAIN GET: one point read of the primary table under
// startRead's trace, ended by finishRead.
func (db *DB) get(key string, explained bool) ([]byte, bool, *explain.Report, error) {
	t0 := time.Now()
	tr := db.startRead(metrics.OpGet, explained)
	if tr != nil {
		tr.SetDetail("key=" + key)
	}
	value, ok, err := db.primary.Get([]byte(key), tr)
	results := 0
	if ok {
		results = 1
	}
	rep := db.finishRead(tr, t0, metrics.OpGet, "", "", "", 0, results, nil, explained, err)
	return value, ok, rep, err
}

// Put writes (or overwrites) the document under key and maintains the
// secondary indexes per the configured technique (Table 1: PUT). It is a
// batch of one.
func (db *DB) Put(key string, value []byte) error {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpPut)
	tr.Enter(metrics.PhaseWriteWait)
	var buf [4]attrSlot
	slots := attrSlots(&buf, len(db.opts.Attrs))
	ops := [1]batchOp{{key: key, value: value}}
	err := db.write(ops[:], slots, tr)
	tr.Finish()
	db.ops.Observe(metrics.OpPut, time.Since(t0))
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

// Delete removes the document under key (Table 1: DEL). It is a batch of
// one.
func (db *DB) Delete(key string) error {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpDelete)
	tr.Enter(metrics.PhaseWriteWait)
	var buf [4]attrSlot
	ops := [1]batchOp{{del: true, key: key}}
	err := db.write(ops[:], attrSlots(&buf, len(db.opts.Attrs)), tr)
	tr.Finish()
	db.ops.Observe(metrics.OpDelete, time.Since(t0))
	return err
}

// Lookup returns the k most recent records whose attr equals value
// (Table 1: LOOKUP). k <= 0 means no limit.
func (db *DB) Lookup(attr, value string, k int) ([]Entry, error) {
	out, _, err := db.runQuery(metrics.OpLookup, attr, value, value, k, false)
	return out, err
}

// ExplainLookup is Lookup with its EXPLAIN report (DESIGN.md §5.7).
func (db *DB) ExplainLookup(attr, value string, k int) ([]Entry, *explain.Report, error) {
	return db.runQuery(metrics.OpLookup, attr, value, value, k, true)
}

// RangeLookup returns the k most recent records with lo <= val(attr) <= hi
// (Table 1: RANGELOOKUP). k <= 0 means no limit.
func (db *DB) RangeLookup(attr, lo, hi string, k int) ([]Entry, error) {
	out, _, err := db.runQuery(metrics.OpRangeLookup, attr, lo, hi, k, false)
	return out, err
}

// ExplainRangeLookup is RangeLookup with its EXPLAIN report (DESIGN.md
// §5.7).
func (db *DB) ExplainRangeLookup(attr, lo, hi string, k int) ([]Entry, *explain.Report, error) {
	return db.runQuery(metrics.OpRangeLookup, attr, lo, hi, k, true)
}

// runQuery is LOOKUP (op OpLookup; lo and hi are the value) and RANGELOOKUP
// over [lo, hi], plain or explained: one run of the configured index kind
// under startRead's trace, recorded in the profiler and ended by
// finishRead. An empty range (hi < lo) reads nothing; explained, it
// reports only its plan.
func (db *DB) runQuery(op metrics.Op, attr, lo, hi string, k int, explained bool) ([]Entry, *explain.Report, error) {
	if !db.indexed(attr) {
		return nil, nil, ErrUnknownAttr
	}
	if hi < lo {
		var rep *explain.Report
		if explained {
			rep = &explain.Report{Op: op.String(), Index: db.opts.Index.String(), Plan: db.planName(op)}
		}
		return nil, rep, nil
	}
	t0 := time.Now()
	tr := db.startRead(op, explained)
	point := op == metrics.OpLookup
	if tr != nil && point {
		tr.SetDetail(attr + "=" + lo + " plan=" + db.planName(op))
	} else if tr != nil {
		tr.SetDetail(attr + "=[" + lo + "," + hi + "] plan=" + db.planName(op))
	}
	out, err := db.query(point, attr, lo, hi, k, tr)
	db.profiler.RecordQuery(k, len(out))
	return out, db.finishRead(tr, t0, op, attr, lo, hi, k, len(out), out, explained, err), err
}

// query runs a LOOKUP (point; lo and hi are the value) or RANGELOOKUP
// over [lo, hi] with the configured index kind.
func (db *DB) query(point bool, attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	switch ix := db.opts.Index; {
	case point && ix == IndexEager:
		return db.eagerLookup(attr, lo, k, tr)
	case point && ix == IndexLazy:
		return db.lazyLookup(attr, lo, k, tr)
	case ix == IndexEager || ix == IndexLazy:
		return db.postingRangeLookup(attr, lo, hi, k, tr)
	case ix == IndexComposite:
		return db.compositeLookup(attr, lo, hi, k, tr)
	default: // Embedded, or with its filters off the NoIndex baseline
		return db.embeddedScan(attr, lo, hi, k, ix == IndexEmbedded, tr)
	}
}

func (db *DB) indexed(attr string) bool {
	return slices.Contains(db.opts.Attrs, attr)
}

// Flush forces all MemTables (primary and index tables) to disk.
func (db *DB) Flush() error {
	for _, t := range db.tables {
		if err := t.db.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases all resources.
func (db *DB) Close() error {
	var err error
	for _, t := range db.tables {
		if e := t.db.Close(); e != nil && err == nil {
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
	for _, t := range db.tables[1:] {
		s.Index = s.Index.Add(t.db.Stats().Snapshot())
	}
	return s
}

// GroupSizeHists returns the commits-per-WAL-write histogram of every
// table, keyed like LevelShapes ("primary", "index-<attr>").
func (db *DB) GroupSizeHists() map[string]*metrics.BucketHistogram {
	out := make(map[string]*metrics.BucketHistogram, len(db.tables))
	for _, t := range db.tables {
		out[t.name] = t.db.GroupSizeHist()
	}
	return out
}

// DiskUsage reports on-disk bytes of the primary table and of all index
// tables (Figure 8a).
func (db *DB) DiskUsage() (primary, index int64, err error) {
	primary, err = db.primary.DiskUsage()
	if err != nil {
		return 0, 0, err
	}
	for _, t := range db.tables[1:] {
		n, err := t.db.DiskUsage()
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
	n := 0
	for _, t := range db.tables {
		n += t.db.FilterMemoryUsage()
	}
	return n
}

// lazyMerger merges a secondary key's posting fragments: at flush, the
// one-entry fragments its blind PUTs left in the MemTable, and during
// index-table compaction, the fragments scattered across levels (paper
// §4.1.2: "During merge compaction, we merge these fragmented lists").
// It drains the fragmentHeap that LOOKUP reads. A job's merger is its
// own (lsm.Options.NewMerger), so it keeps its heap, key set and buffer
// across Merges without a lock; the engine copies a merged value before
// the next Merge.
type lazyMerger struct {
	st   *metrics.IOStats
	heap fragmentHeap
	seen postings.KeySet
	buf  []byte
}

// Merge writes the newest entry per primary key of values, newest first,
// dropping deletion markers when bottom, and books the decode work. It
// elides the key when no entry survives, and salvages an ill-formed
// fragment set (mergeSalvage).
func (m *lazyMerger) Merge(_ []byte, values [][]byte, bottom bool) ([]byte, bool) {
	out, err := m.merge(values, bottom)
	if err != nil {
		return m.mergeSalvage(values, bottom)
	}
	m.buf = out
	var entries, nbytes int64
	for i := range m.heap.curs {
		// An empty list's magic byte is not decode work.
		if c := &m.heap.curs[i]; c.EntriesDecoded() > 0 {
			entries += c.EntriesDecoded()
			nbytes += c.BytesDecoded()
		}
	}
	m.st.PostingsBytesDecoded.Add(nbytes)
	m.st.PostingsEntriesDecoded.Add(entries)
	m.st.FragmentsMerged.Add(int64(len(values)))
	if len(out) == 1 { // the magic byte alone: nothing survived
		return nil, false
	}
	return out, true
}

// merge drains the heap over values into m.buf in v2: the first entry of
// each primary key wins, as in LOOKUP, and a winning deletion marker is
// dropped when bottom.
//
//lsm:hotpath
func (m *lazyMerger) merge(values [][]byte, bottom bool) ([]byte, error) {
	if err := m.heap.load(values); err != nil {
		return nil, err
	}
	m.seen.Reset()
	out, prev := append(m.buf[:0], postings.MagicV2), uint64(0)
	for key, seq, del, ok := m.heap.next(); ok; key, seq, del, ok = m.heap.next() {
		if m.seen.Insert(key) && !(bottom && del) {
			out, prev = postings.AppendEntry(out, prev, key, seq, del)
		}
	}
	return out, m.heap.err
}

// mergeSalvage preserves the seed behaviour when a fragment is ill-formed
// (corrupt, or out of newest-first order): skip the undecodable fragments
// and merge the rest through the reference postings.Merge, which writes
// them back in order, rather than failing the whole flush or compaction.
// It books the decode work of the fragments it decoded, as a streaming
// merge does.
func (m *lazyMerger) mergeSalvage(values [][]byte, bottom bool) ([]byte, bool) {
	frags := make([]postings.List, 0, len(values))
	for _, v := range values {
		l, err := postings.Decode(v)
		if err != nil {
			continue
		}
		frags = append(frags, l)
		m.st.PostingsEntriesDecoded.Add(int64(len(l)))
		m.st.PostingsBytesDecoded.Add(int64(len(v)))
	}
	m.st.FragmentsMerged.Add(int64(len(values)))
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
	out := make(map[string]lsm.VerifyReport, len(db.tables))
	for _, t := range db.tables {
		rep, err := t.db.Verify()
		if err != nil {
			return nil, err
		}
		out[t.name] = rep
	}
	return out, nil
}

// DebugString renders the level shape of the primary table and each
// index table.
func (db *DB) DebugString() string {
	s := ""
	for _, t := range db.tables {
		s += t.name + ":\n" + indent(t.db.DebugString())
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

// Tracer returns the DB's operation tracer (never nil; it samples nothing
// unless Options.Tracer was set).
func (db *DB) Tracer() *metrics.Tracer { return db.tracer }

// OpStats returns the always-on per-operation latency histograms.
func (db *DB) OpStats() *metrics.OpStats { return db.ops }

// EventLog returns the in-memory lifecycle event log shared by the
// primary table and every index table.
func (db *DB) EventLog() *metrics.EventLog { return db.events }

// Profiler returns the DB's live workload profiler (never nil).
func (db *DB) Profiler() *explain.WorkloadProfiler { return db.profiler }

// Health reports the first unhealthy condition across the primary table
// and every index table (lsm.ErrClosed, or a table's sticky flush error),
// or nil when all tables serve normally.
func (db *DB) Health() error {
	for _, t := range db.tables {
		if err := t.db.Health(); err != nil {
			return err
		}
	}
	return nil
}

// LevelShapes returns the per-level shape of every table, keyed by table
// name ("primary", "index-<attr>") — the tree gauges served at /metrics.
func (db *DB) LevelShapes() map[string][]lsm.LevelInfo {
	out := make(map[string][]lsm.LevelInfo, len(db.tables))
	for _, t := range db.tables {
		out[t.name] = t.db.LevelShape()
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
	// One snapshot gives the bytes written and the ingest denominator, so a
	// concurrent writer's flush cannot land between the two reads.
	ps := db.primary.Stats().Snapshot()
	primary = ps.WriteAmplification()
	primaryIngest := ps.IngestBytes
	if primary == 0 {
		primaryIngest = ps.BlockWriteBytes // lower bound when 0 ingest info
	}
	for _, t := range db.tables[1:] {
		is := t.db.Stats().Snapshot()
		if primaryIngest > 0 {
			index[t.attr] = float64(is.BlockWriteBytes+is.CompactionWriteBytes) / float64(primaryIngest)
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
	for _, t := range db.tables {
		if err := t.db.Checkpoint(filepath.Join(destDir, t.name)); err != nil {
			return err
		}
	}
	return writeDescriptor(db.fs, destDir, descriptor{Index: db.opts.Index.String(), Attrs: db.opts.Attrs, SeqFloor: db.seqFloor})
}

// CompactRange forces the user-key range [lo, hi] (empty strings =
// unbounded) of the primary table down to its resting level, and fully
// compacts every index table, surfacing any mid-merge failure (the event
// log carries it as a compaction_error event). Useful after bulk loads
// and deletes.
func (db *DB) CompactRange(lo, hi string) error {
	var loB, hiB []byte
	if lo != "" {
		loB = []byte(lo)
	}
	if hi != "" {
		hiB = []byte(hi)
	}
	for _, t := range db.tables {
		if err := t.db.CompactRange(loB, hiB); err != nil {
			return fmt.Errorf("core: compact %s: %w", t.name, err)
		}
		loB, hiB = nil, nil // index tables compact whole
	}
	return nil
}
