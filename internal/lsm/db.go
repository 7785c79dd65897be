package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"leveldbpp/internal/btree"
	"leveldbpp/internal/cache"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database is closed")

// ErrStalled is returned by Health while the background-mode L0 write-stop
// throttle is engaged: writes block until compaction drains level 0.
var ErrStalled = errors.New("lsm: write stall: level-0 at stop trigger")

// The engine-wide blessed lock order, enforced whole-program by
// lsmlint's lockorder analyzer (DESIGN.md §5.8). A lock may be acquired
// only while holding locks strictly earlier in some chain; the order is
// the transitive closure of all chains. core's writeMu is the outermost
// (it serializes primary+index write pairs above this package), then the
// compaction interlock, then db.mu, then the WAL lock; cache shards and
// metrics histograms are leaves taken under db.mu. The commit queue has
// no lock of its own: db.mu guards it.
//
// The sub-compaction run lock (compactionRun.mu) and the tracer's ring
// mutex are leaves below db.mu. A compaction job is entered with db.mu
// held and drops it only for the merge, which the analyzer does not see,
// so it counts the merge's run lock and the job's OpCompact trace as
// taken under db.mu; neither lock is ever held while taking db.mu.
//
//lsm:lockorder core.DB.writeMu < lsm.background.compactionMu < lsm.DB.mu < lsm.DB.logMu
//lsm:lockorder lsm.DB.mu < cache.shard.mu
//lsm:lockorder lsm.DB.mu < metrics.Histogram.mu
//lsm:lockorder lsm.DB.mu < lsm.compactionRun.mu
//lsm:lockorder lsm.DB.mu < metrics.Tracer.mu

// DB is a single-node LSM key-value store. Writes are serialized. The
// flush and compaction jobs of one pipeline (background.go) keep the tree
// in shape; by default the writing goroutine runs them (see package doc),
// and with Options.BackgroundCompaction dedicated goroutines do and the
// writer only swaps MemTables.
type DB struct {
	dir  string
	opts Options

	mu   sync.RWMutex
	cond *sync.Cond // signals imm-slot free, L0 drained, jobs done, commits landed
	mem  *memTable  // guarded by mu
	imm  *memTable  // guarded by mu; frozen MemTable awaiting its flush job
	// logMu guards the WAL writer pointer and all WAL I/O, so a commit
	// leader appends and fsyncs without holding db.mu.
	// Lock order: db.mu (either mode) before logMu, never the reverse;
	// no goroutine acquires db.mu while holding logMu.
	logMu   sync.Mutex
	log     *wal.Writer // guarded by logMu
	memWALs []string    // guarded by mu; WAL files backing mem (active segment last)
	immWALs []string    // guarded by mu; WAL files backing imm; deleted after its flush
	immSeq  uint64      // guarded by mu; highest seq in imm (manifest floor for its flush)
	walSeq  uint64      // guarded by mu; number of the active WAL segment
	v       *version    // guarded by mu
	lastSeq uint64      // guarded by mu
	// compactingLevels marks levels that are input or output of an
	// in-flight compaction job; jobs are only picked on unmarked level
	// pairs, so concurrent jobs never share files.
	compactingLevels []bool   // guarded by mu
	flushedSeq       uint64   // guarded by mu; highest seq durable in SSTables (manifest LastSeq)
	compactPtr       [][]byte // guarded by mu; per-level round-robin compaction cursor (user key)
	blockCache       *cache.Cache
	ingestBytes      int64 // guarded by mu; user key+value bytes accepted, for WAMF
	closed           bool  // guarded by mu

	// commitsInFlight counts leader passes between sequence assignment
	// (under mu) and MemTable insertion (back under mu). A freeze and
	// Close wait for zero before treating lastSeq as fully present in the
	// MemTables.
	commitsInFlight int // guarded by mu
	commitQ         commitQueue
	cstats          commitStats
	groupSize       *metrics.Histogram // commits per WAL write pass

	// nextFileNum is atomic so a compaction can allocate output numbers
	// while rolling tables without holding db.mu.
	nextFileNum atomic.Uint64

	// Sub-compaction observability (DESIGN.md §5.9), atomic because
	// partition workers update them off-lock: partitions merged,
	// currently-busy workers, and cumulative writer stall time under the
	// L0 stop trigger.
	subcompactions atomic.Int64
	workersBusy    atomic.Int64
	stallNS        atomic.Int64

	bg *background // the flush/compaction pipeline; goroutines only in background mode

	// testBlockFlush, when non-nil, is received from by the flush job
	// before it builds a table — lets crash tests freeze a DB with an
	// unflushed immutable MemTable outstanding.
	testBlockFlush chan struct{}

	// testCompactRoll, when non-nil, runs after a compaction finishes each
	// output table, while nothing references it yet — lets crash tests
	// snapshot a directory with sub-compaction outputs that no version
	// edit has installed. Set before the compaction starts.
	testCompactRoll func()
}

// Open creates or recovers a DB in dir.
func Open(dir string, o *Options) (*DB, error) {
	opts := o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}
	db := &DB{
		dir:              dir,
		opts:             opts,
		mem:              newMemTable(opts.SecondaryAttrs),
		v:                newVersion(opts.MaxLevels),
		compactPtr:       make([][]byte, opts.MaxLevels),
		compactingLevels: make([]bool, opts.MaxLevels),
		bg:               &background{},
	}
	db.cond = sync.NewCond(&db.mu)
	db.commitQ.maxWaiters = maxGroupWaiters
	db.nextFileNum.Store(1)
	db.groupSize = metrics.NewHistogramBuckets(0, metrics.ExpBuckets(1, 2, 9))
	if opts.BlockCacheBytes > 0 {
		db.blockCache = cache.New(opts.BlockCacheBytes)
	}

	m, found, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if found {
		db.nextFileNum.Store(m.NextFileNum)
		db.lastSeq = m.LastSeq
		db.flushedSeq = m.LastSeq
		for l, files := range m.Levels {
			if l >= opts.MaxLevels {
				return nil, fmt.Errorf("lsm: manifest has %d levels, MaxLevels is %d", len(m.Levels), opts.MaxLevels)
			}
			for _, fr := range files {
				fm, err := db.openTable(fr)
				if err != nil {
					return nil, err
				}
				db.v.levels[l] = append(db.v.levels[l], fm)
			}
		}
	}

	// Replay the WAL: records newer than the manifest's sequence were in
	// a MemTable at crash/close time. The WAL is a series of numbered
	// segments; a directory written before segmentation may also hold a
	// single legacy "WAL" file. Every one backs the recovered MemTable and
	// is deleted after its flush (record seqs are unique, so file order is
	// immaterial).
	replayFloor := db.lastSeq
	segments := walSegments(dir)
	legacy := filepath.Join(dir, "WAL")
	if _, err := os.Stat(legacy); err == nil {
		db.memWALs = append(db.memWALs, legacy)
	}
	db.memWALs = append(db.memWALs, segments...)
	for _, path := range db.memWALs {
		err = wal.Replay(path, func(r wal.Record) error {
			if r.Seq <= replayFloor {
				return nil // already durable in an SSTable
			}
			db.mem.add(r.Seq, ikey.Kind(r.Kind), r.Key, r.Value, opts.Extract)
			if r.Seq > db.lastSeq {
				db.lastSeq = r.Seq
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	db.walSeq = nextWALSeq(segments) + 1
	seg := walSegmentPath(dir, db.walSeq)
	if db.log, err = wal.Create(seg); err != nil {
		return nil, err
	}
	db.memWALs = append(db.memWALs, seg)
	db.removeOrphanTables()
	if opts.BackgroundCompaction {
		db.startBackground()
	}
	db.emit(metrics.Event{
		Type:    metrics.EventOpen,
		Entries: db.mem.list.Len(),
		Bytes:   db.mem.approximateBytes(),
		Detail:  dir,
	})
	return db, nil
}

// emit forwards e to the configured event sink (nil-safe).
func (db *DB) emit(e metrics.Event) {
	if db.opts.Events != nil {
		db.opts.Events.Emit(e)
	}
}

// walSegmentPath names WAL segment n.
func walSegmentPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("WAL-%06d", n))
}

// walSegments lists existing numbered WAL segments, oldest first.
func walSegments(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "WAL-") && len(name) > 4 {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out
}

func nextWALSeq(segments []string) uint64 {
	var maxN uint64
	for _, s := range segments {
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(s), "WAL-%d", &n); err == nil && n > maxN {
			maxN = n
		}
	}
	return maxN
}

// removeOrphanTables deletes .sst files not referenced by the manifest —
// the residue of a crash between installing a compaction's new version
// and deleting its inputs. Safe at open: nothing references them.
//
//lsm:locked — called only from Open, before the DB is shared.
func (db *DB) removeOrphanTables() {
	live := map[string]bool{}
	for _, level := range db.v.levels {
		for _, fm := range level {
			live[filepath.Base(tablePath(db.dir, fm.Num))] = true
		}
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return // best-effort; an unreadable dir will fail loudly elsewhere
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".sst" && !live[name] {
			_ = os.Remove(filepath.Join(db.dir, name))
		}
	}
}

func (db *DB) openTable(fr fileRecord) (*FileMeta, error) {
	f, err := os.Open(tablePath(db.dir, fr.Num))
	if err != nil {
		return nil, fmt.Errorf("lsm: open table %06d: %w", fr.Num, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	tbl, err := sstable.OpenTableCached(f, fi.Size(), db.opts.Stats, db.blockCache)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	fm := &FileMeta{Num: fr.Num, Size: fr.Size, tbl: tbl, f: f}
	fm.Smallest = append([]byte(nil), tbl.Smallest()...)
	fm.Largest = append([]byte(nil), tbl.Largest()...)
	return fm, nil
}

// Put writes key → value. If a WriteMerger is configured and the MemTable
// already holds a live value for key, the merger combines them first
// (Lazy-index fragment coalescing; memory-only, no disk I/O).
func (db *DB) Put(key, value []byte) error {
	_, err := db.write(ikey.KindSet, key, value, nil)
	return err
}

// PutWithSeq is Put returning the assigned sequence number, which
// secondary-index layers stamp into posting-list entries so top-K
// ordering follows primary-table insertion time.
func (db *DB) PutWithSeq(key, value []byte) (uint64, error) {
	return db.write(ikey.KindSet, key, value, nil)
}

// PutWithSeqTraced is PutWithSeq recording write-path phase timings
// (throttle, wal, mem_insert, rotate) into tr. tr may be nil.
func (db *DB) PutWithSeqTraced(key, value []byte, tr *metrics.Trace) (uint64, error) {
	return db.write(ikey.KindSet, key, value, tr)
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key []byte) error {
	_, err := db.write(ikey.KindDelete, key, nil, nil)
	return err
}

// DeleteWithSeq is Delete returning the assigned sequence number.
func (db *DB) DeleteWithSeq(key []byte) (uint64, error) {
	return db.write(ikey.KindDelete, key, nil, nil)
}

// DeleteWithSeqTraced is DeleteWithSeq with write-path phase tracing.
func (db *DB) DeleteWithSeqTraced(key []byte, tr *metrics.Trace) (uint64, error) {
	return db.write(ikey.KindDelete, key, nil, tr)
}

// write commits one record. The MemTable keeps copies of key and value:
// callers may reuse their buffers.
func (db *DB) write(kind ikey.Kind, key, value []byte, tr *metrics.Trace) (uint64, error) {
	pc := pendingPool.Get().(*pendingCommit)
	pc.one[0] = wal.Record{Kind: byte(kind), Key: key, Value: value}
	pc.records = pc.one[:]
	pc.tr = tr
	return db.commit(pc)
}

// Get returns the newest live value for key, reading the MemTable, then
// level-0 files newest-first, then one file per deeper level.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	return db.GetTraced(key, nil)
}

// GetTraced is Get recording read-path phase timings (mem_probe,
// imm_probe, l0_probe, level_probe, plus block_load/cache_hit sub-phases)
// into tr. tr may be nil.
func (db *DB) GetTraced(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	return db.getLocked(key, tr)
}

//lsm:hotpath
func (db *DB) getLocked(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	t0 := tr.Now()
	if value, _, kind, ok := db.mem.get(key); ok {
		tr.Since(metrics.PhaseMemProbe, t0)
		if kind == ikey.KindDelete {
			return nil, false, nil
		}
		return value, true, nil
	}
	tr.Since(metrics.PhaseMemProbe, t0)
	if db.imm != nil { // frozen MemTable: newer than any SSTable
		t0 = tr.Now()
		value, _, kind, ok := db.imm.get(key)
		tr.Since(metrics.PhaseImmProbe, t0)
		if ok {
			if kind == ikey.KindDelete {
				return nil, false, nil
			}
			return value, true, nil
		}
	}
	// One scratch serves every table probed by this GET; the returned
	// value aliases immutable block contents (like the MemTable paths
	// alias arena memory), so no per-hit copies are made.
	var sc sstable.GetScratch
	sc.Trace = tr
	t0 = tr.Now()
	for _, fm := range db.v.levels[0] { // newest first
		m := tr.BlockMark()
		ik, val, ok, err := fm.tbl.GetWith(&sc, key)
		tr.CountLevelSince(0, m)
		if err != nil {
			return nil, false, err
		}
		if ok {
			tr.Since(metrics.PhaseL0Probe, t0)
			if ikey.KindOf(ik) == ikey.KindDelete {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	tr.Since(metrics.PhaseL0Probe, t0)
	t0 = tr.Now()
	for l := 1; l < len(db.v.levels); l++ {
		fm := db.v.findFile(l, key)
		if fm == nil {
			continue
		}
		m := tr.BlockMark()
		ik, val, ok, err := fm.tbl.GetWith(&sc, key)
		tr.CountLevelSince(l, m)
		if err != nil {
			return nil, false, err
		}
		if ok {
			tr.Since(metrics.PhaseLevelProbe, t0)
			if ikey.KindOf(ik) == ikey.KindDelete {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	tr.Since(metrics.PhaseLevelProbe, t0)
	return nil, false, nil
}

// Flush forces the MemTable to level 0 and blocks until the pipeline is
// idle: the frozen MemTable flushed, no compaction in flight, the tree
// shape within budget. In deterministic mode the caller runs the flush
// and the compactions itself. Useful in tests and at the end of bulk
// loads.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.freezeMemLocked(true); err != nil {
		return err
	}
	return db.settleLocked()
}

// Close flushes nothing (the WAL preserves the MemTable) and releases file
// handles. It first drains the in-flight flush and compaction jobs and
// stops the background goroutines, if any.
func (db *DB) Close() error {
	db.stopBackground()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	// A commit leader may be mid-pass (off-mu WAL write); let it
	// land its MemTable inserts before the log closes under it.
	db.waitCommitsLocked()
	var firstErr error
	db.logMu.Lock()
	if err := db.log.Close(); err != nil {
		firstErr = err
	}
	db.logMu.Unlock()
	for _, level := range db.v.levels {
		for _, fm := range level {
			if err := fm.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	db.emit(metrics.Event{Type: metrics.EventClose, Detail: db.dir})
	return firstErr
}

// Health reports whether the DB is serving normally: ErrClosed after
// Close, the pipeline's sticky error if a flush or background compaction
// failed, ErrStalled while the background-mode L0 write-stop throttle is
// engaged, nil otherwise. Served by the HTTP layer at /healthz.
func (db *DB) Health() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if db.bg.err != nil {
		return db.bg.err
	}
	if db.opts.BackgroundCompaction && len(db.v.levels[0]) >= db.opts.L0StopTrigger {
		return ErrStalled
	}
	return nil
}

// LevelInfo describes one populated level for monitoring exports.
type LevelInfo struct {
	Level   int   `json:"level"`
	Files   int   `json:"files"`
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	Blocks  int   `json:"blocks"`
}

// LevelShape returns per-level file counts, byte totals and entry counts
// (every level up to the deepest populated one), the tree-shape gauges
// exported at /metrics.
func (db *DB) LevelShape() []LevelInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	deepest := -1
	for l, files := range db.v.levels {
		if len(files) > 0 {
			deepest = l
		}
	}
	out := make([]LevelInfo, 0, deepest+1)
	for l := 0; l <= deepest; l++ {
		li := LevelInfo{Level: l, Files: len(db.v.levels[l])}
		for _, fm := range db.v.levels[l] {
			li.Bytes += fm.Size
			li.Entries += fm.tbl.EntryCount()
			li.Blocks += fm.tbl.NumBlocks()
		}
		out = append(out, li)
	}
	return out
}

// Stats returns the DB's I/O counters.
func (db *DB) Stats() *metrics.IOStats { return db.opts.Stats }

// DiskUsage returns the on-disk size of all SSTables plus the WAL.
func (db *DB) DiskUsage() (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, level := range db.v.levels {
		for _, fm := range level {
			total += fm.Size
		}
	}
	seen := map[string]bool{}
	for _, p := range append(append([]string(nil), db.memWALs...), db.immWALs...) {
		if seen[p] {
			continue
		}
		seen[p] = true
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total, nil
}

// FilterMemoryUsage returns the memory-resident filter/zone-map bytes
// across all open tables (Figure 8a space accounting).
func (db *DB) FilterMemoryUsage() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, level := range db.v.levels {
		for _, fm := range level {
			n += fm.tbl.FilterMemoryBytes()
		}
	}
	return n
}

// BlockCacheStats returns cache hits, misses and used bytes; zeros when
// no cache is configured.
func (db *DB) BlockCacheStats() (hits, misses, used int64) {
	if db.blockCache == nil {
		return 0, 0, 0
	}
	return db.blockCache.Stats()
}

// WriteAmplification returns the measured physical write amplification:
// SSTable bytes written (flushes + compactions) divided by user bytes
// ingested. Note two deviations from the paper's logical WAMF (Table 5):
// block compression can push the ratio below 1, and for index tables
// written via read-modify-write the denominator counts the rewritten
// value, not the logical record — use core.WriteAmplification for the
// paper's per-user-byte comparison. Returns 0 before any ingest.
func (db *DB) WriteAmplification() float64 {
	db.mu.RLock()
	ingested := db.ingestBytes
	db.mu.RUnlock()
	if ingested == 0 {
		return 0
	}
	s := db.opts.Stats.Snapshot()
	return float64(s.BlockWriteBytes+s.CompactionWriteBytes) / float64(ingested)
}

// LastSeq returns the most recently assigned sequence number.
func (db *DB) LastSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastSeq
}

// --- read views ---------------------------------------------------------

// View is a read-locked snapshot of the tree handed to index algorithms.
// The paper's secondary lookups proceed stratum by stratum, newest data
// first: MemTable, then each level-0 file (each flush is its own
// time-ordered run), then levels 1, 2, … .
type View struct {
	db     *DB
	mem    *memTable
	imm    *memTable // frozen MemTable awaiting its flush, or nil
	levels [][]*FileMeta
}

// View runs fn with a stable view of the database. fn must not call
// writing methods of the same DB (it would deadlock); reads on *other*
// DBs (e.g. the primary table while viewing an index table) are fine.
func (db *DB) View(fn func(*View) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return fn(&View{db: db, mem: db.mem, imm: db.imm, levels: db.v.levels})
}

// Get performs a standard newest-wins point read inside the view.
func (v *View) Get(key []byte) ([]byte, bool, error) { return v.db.getLocked(key, nil) }

// GetTraced is Get with read-path phase tracing (tr may be nil).
func (v *View) GetTraced(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	return v.db.getLocked(key, tr)
}

// MemGet returns the newest MemTable record for key.
func (v *View) MemGet(key []byte) (value []byte, seq uint64, deleted bool, ok bool) {
	val, seq, kind, ok := v.mem.get(key)
	return val, seq, kind == ikey.KindDelete, ok
}

// MemIter iterates the MemTable in internal-key order.
func (v *View) MemIter() *skiplist.Iterator { return v.mem.iter() }

// MemSecTree returns the MemTable-side secondary B-tree for attr (nil when
// the attribute is not embedded-indexed).
func (v *View) MemSecTree(attr string) *btree.Tree { return v.mem.secTree(attr) }

// MemMaxSeq returns the highest sequence number in the MemTable (0 when
// empty) — the upper bound lookup algorithms use for stratum pruning.
func (v *View) MemMaxSeq() uint64 { return v.mem.maxSeq }

// HasImm reports whether a frozen MemTable stratum exists (its flush job
// is pending or running). It sits between the MemTable and level 0 in
// newest-first order.
func (v *View) HasImm() bool { return v.imm != nil }

// ImmGet returns the newest frozen-MemTable record for key.
func (v *View) ImmGet(key []byte) (value []byte, seq uint64, deleted bool, ok bool) {
	if v.imm == nil {
		return nil, 0, false, false
	}
	val, seq, kind, ok := v.imm.get(key)
	return val, seq, kind == ikey.KindDelete, ok
}

// ImmIter iterates the frozen MemTable in internal-key order (nil when
// there is none).
func (v *View) ImmIter() *skiplist.Iterator {
	if v.imm == nil {
		return nil
	}
	return v.imm.iter()
}

// ImmSecTree returns the frozen MemTable's secondary B-tree for attr.
func (v *View) ImmSecTree(attr string) *btree.Tree {
	if v.imm == nil {
		return nil
	}
	return v.imm.secTree(attr)
}

// ImmMaxSeq returns the highest sequence number in the frozen MemTable
// (0 when there is none).
func (v *View) ImmMaxSeq() uint64 {
	if v.imm == nil {
		return 0
	}
	return v.imm.maxSeq
}

// L0 returns the level-0 files, newest first.
func (v *View) L0() []*FileMeta { return v.levels[0] }

// Level returns the files of level l (l ≥ 1), sorted by key, disjoint.
func (v *View) Level(l int) []*FileMeta { return v.levels[l] }

// MaxLevel returns the deepest configured level index.
func (v *View) MaxLevel() int { return len(v.levels) - 1 }

// DeepestNonEmpty returns the index of the deepest level holding data
// (0 when only L0/MemTable hold data).
func (v *View) DeepestNonEmpty() int {
	for l := len(v.levels) - 1; l >= 0; l-- {
		if len(v.levels[l]) > 0 {
			return l
		}
	}
	return 0
}

// FindLevelFile returns the single file in level l that may contain key,
// or nil. For l == 0 use L0 and probe each file.
func (v *View) FindLevelFile(l int, key []byte) *FileMeta {
	return (&version{levels: v.levels}).findFile(l, key)
}

// OverlappingFiles returns files in level l intersecting [loUser, hiUser].
func (v *View) OverlappingFiles(l int, loUser, hiUser []byte) []*FileMeta {
	return (&version{levels: v.levels}).overlappingFiles(l, loUser, hiUser)
}

// NumStrata reports how many time-ordered strata the view has: the
// MemTable, the frozen MemTable if present, each L0 file, and each deeper
// level (paper's "levels"; our L0 decomposition preserves the
// one-run-per-stratum property the lookup algorithms rely on).
func (v *View) NumStrata() int {
	n := 1 + len(v.levels[0])
	if v.imm != nil {
		n++
	}
	for l := 1; l < len(v.levels); l++ {
		if len(v.levels[l]) > 0 {
			n++
		}
	}
	return n
}

// NumStrata is the DB-scoped variant of View.NumStrata: the live stratum
// count of the tree, the cost model's "L" for stand-alone index lookups.
func (db *DB) NumStrata() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return (&View{mem: db.mem, imm: db.imm, levels: db.v.levels}).NumStrata()
}

// OverlappingBlockCount sums, across every SSTable, the data blocks whose
// key span intersects the user-key range [loUser, hiExcl) — metadata only,
// no I/O. It is the live "M" (blocks a range scan must visit) of the cost
// model's RANGELOOKUP formulas.
func (db *DB) OverlappingBlockCount(loUser, hiExcl []byte) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, level := range db.v.levels {
		for _, fm := range level {
			n += fm.tbl.OverlappingBlockCount(loUser, hiExcl)
		}
	}
	return n
}

// DebugString renders the tree shape — entries and bytes per level —
// in the spirit of LevelDB's "leveldb.stats" property.
func (db *DB) DebugString() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "memtable: %d entries, %d bytes\n", db.mem.list.Len(), db.mem.approximateBytes())
	if db.imm != nil {
		fmt.Fprintf(&sb, "immutable memtable: %d entries, %d bytes\n", db.imm.list.Len(), db.imm.approximateBytes())
	}
	for l, files := range db.v.levels {
		if len(files) == 0 {
			continue
		}
		var bytes int64
		entries := 0
		for _, fm := range files {
			bytes += fm.Size
			entries += fm.tbl.EntryCount()
		}
		fmt.Fprintf(&sb, "level %d: %d files, %d entries, %d bytes\n", l, len(files), entries, bytes)
	}
	return sb.String()
}
