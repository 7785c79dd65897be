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

// The engine-wide blessed lock order, enforced whole-program by
// lsmlint's lockorder analyzer (DESIGN.md §5.8). A lock may be acquired
// only while holding locks strictly earlier in some chain; the order is
// the transitive closure of all chains. core's writeMu is the outermost
// (it serializes primary+index write pairs above this package), then
// db.mu, then the WAL lock; cache shards are leaves taken under db.mu.
// The commit queue has no lock of its own: db.mu guards it, and the
// group-size histogram is lock-free.
//
// The tracer's ring mutex is a leaf below db.mu. A compaction job is
// entered with db.mu held and drops it only for the merge, which the
// analyzer does not see, so it counts the job's OpCompact trace as taken
// under db.mu; the ring mutex is never held while taking db.mu.
//
//lsm:lockorder core.DB.writeMu < lsm.DB.mu < lsm.DB.logMu
//lsm:lockorder lsm.DB.mu < cache.shard.mu
//lsm:lockorder lsm.DB.mu < metrics.Tracer.mu

// DB is a single-node LSM key-value store. Writes are serialized. The
// flush and compaction jobs of one pipeline (background.go) keep the tree
// in shape, and the writing goroutine runs them (see package doc).
type DB struct {
	dir  string
	opts Options

	mu   sync.RWMutex
	cond *sync.Cond // signals imm-slot free, L0 drained, jobs done, commits landed
	mem  *memTable  // guarded by mu
	imm  *memTable  // guarded by mu; frozen MemTable awaiting its flush job
	// logMu guards the WAL writer pointer and all WAL I/O, so a commit
	// leader appends and fsyncs without holding db.mu.
	// Lock order: db.mu before logMu, never the reverse;
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
	closed           bool // guarded by mu

	// commitsInFlight counts leader passes between sequence assignment
	// (under mu) and MemTable insertion (back under mu). A freeze and
	// Close wait for zero before treating lastSeq as fully present in the
	// MemTables.
	commitsInFlight int // guarded by mu
	commitQ         commitQueue
	groupSize       *metrics.BucketHistogram // commits per WAL write pass

	// nextFileNum is atomic so a compaction can allocate output numbers
	// while rolling tables without holding db.mu.
	nextFileNum atomic.Uint64

	bg *background // the flush/compaction pipeline

	// testBlockFlush, when non-nil, is received from by the flush job
	// before it builds a table — lets crash tests freeze a DB with an
	// unflushed immutable MemTable outstanding.
	testBlockFlush chan struct{}

	// testCompactRoll, when non-nil, runs after a flush or compaction
	// finishes each output table, while nothing references it yet — lets
	// crash tests snapshot a directory with outputs that no version edit
	// has installed, and a non-nil return fails the job's writer there.
	// Set before the job starts.
	testCompactRoll func() error
}

// Open creates or recovers a DB in dir. If it fails, it closes every
// table it opened and unlinks none.
func Open(dir string, o *Options) (_ *DB, err error) {
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
	db.groupSize = metrics.NewBucketHistogram(metrics.ExpBuckets(1, 2, 9))
	if opts.BlockCacheBytes > 0 {
		db.blockCache = cache.New(opts.BlockCacheBytes)
	}

	defer func() {
		if err != nil {
			for _, level := range db.v.levels {
				for _, fm := range level {
					_ = fm.f.Close()
				}
			}
		}
	}()
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

// removeOrphanTables deletes .sst files not referenced by the manifest,
// which only a crash leaves: a version edit's added tables before its
// manifest write, its deleted ones after it. Safe at open.
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

// Put writes key → value. The write is blind: with a Merger configured,
// the key's MemTable versions are combined at flush, not here.
func (db *DB) Put(key, value []byte) error {
	_, err := db.write(ikey.KindSet, key, value, 0, nil)
	return err
}

// PutAt is Put at sequence number seq, which must be above LastSeq;
// otherwise nothing is written and the error is ErrSeqNotAbove. Seqs
// between LastSeq and seq are skipped; seq 0 takes the next one. A secondary index writes its
// records at the seq of the primary record they index, and the primary
// its record at a seq reserved before the index writes. It records
// write-path phase timings (wal, mem_insert, rotate) into tr; tr may be
// nil.
func (db *DB) PutAt(key, value []byte, seq uint64, tr *metrics.Trace) error {
	_, err := db.write(ikey.KindSet, key, value, seq, tr)
	return err
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key []byte) error {
	_, err := db.write(ikey.KindDelete, key, nil, 0, nil)
	return err
}

// DeleteAt is Delete at sequence number seq, under PutAt's rule.
func (db *DB) DeleteAt(key []byte, seq uint64) error {
	_, err := db.write(ikey.KindDelete, key, nil, seq, nil)
	return err
}

// DeleteWithSeqTraced is Delete returning the assigned sequence number,
// with write-path phase tracing.
func (db *DB) DeleteWithSeqTraced(key []byte, tr *metrics.Trace) (uint64, error) {
	return db.write(ikey.KindDelete, key, nil, 0, tr)
}

// ErrSeqNotAbove fails a commit at a caller-given sequence number that is
// not above LastSeq.
var ErrSeqNotAbove = errors.New("lsm: sequence number not above LastSeq")

// AdvanceSeq raises LastSeq to seq if it is lower, so no later commit is
// assigned a seq at or below it. A database whose index tables may hold
// records at seqs its primary never committed (a crash between the two
// writes) raises the primary's LastSeq over them at open.
func (db *DB) AdvanceSeq(seq uint64) {
	db.mu.Lock()
	db.lastSeq = max(db.lastSeq, seq)
	db.mu.Unlock()
}

// write commits one record, at seq or, when seq is 0, at the next one.
// The MemTable keeps copies of key and value: callers may reuse their
// buffers.
func (db *DB) write(kind ikey.Kind, key, value []byte, seq uint64, tr *metrics.Trace) (uint64, error) {
	pc := pendingPool.Get().(*pendingCommit)
	pc.one[0] = wal.Record{Kind: byte(kind), Key: key, Value: value, Seq: seq}
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

// GetSortedTraced is GetTraced over keys, which must be distinct and in
// ascending order, under one read lock: fn receives each key's index and
// what GetTraced would return for it, in key order, and the first read
// error ends the batch. Each table stratum (an L0 table, a deeper level)
// keeps one scratch across the batch, and sorted keys visit its blocks in
// ascending order, so keys that share a data block read, inflate and count
// it once. Values alias immutable memory, as GetTraced's do.
func (db *DB) GetSortedTraced(keys [][]byte, tr *metrics.Trace, fn func(i int, value []byte, ok bool)) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	scs := make([]sstable.GetScratch, len(db.v.levels[0])+len(db.v.levels)-1)
	for i, key := range keys {
		value, ok, err := db.walkLocked(key, tr, scs)
		if err != nil {
			return err
		}
		fn(i, value, ok)
	}
	return nil
}

// getLocked is one GET: a single scratch serves every table it probes.
func (db *DB) getLocked(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	var sc [1]sstable.GetScratch
	return db.walkLocked(key, tr, sc[:])
}

// scratchAt returns the scratch of table stratum i (L0 table j is stratum
// j, level l is stratum len(L0)+l-1), or scs' only one, set to trace tr.
func scratchAt(scs []sstable.GetScratch, i int, tr *metrics.Trace) *sstable.GetScratch {
	sc := &scs[min(i, len(scs)-1)]
	sc.Trace = tr
	return sc
}

// walkLocked returns key's newest version, reading the MemTable, the
// frozen MemTable, the L0 tables newest first, then the one file per
// deeper level whose range covers key, with the scratches of scratchAt.
//
//lsm:hotpath
func (db *DB) walkLocked(key []byte, tr *metrics.Trace, scs []sstable.GetScratch) ([]byte, bool, error) {
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
	// The returned value aliases immutable block contents (like the
	// MemTable paths alias arena memory), so no per-hit copies are made.
	l0 := db.v.levels[0]
	t0 = tr.Now()
	for j, fm := range l0 { // newest first
		m := tr.BlockMark()
		ik, val, ok, err := fm.tbl.GetWith(scratchAt(scs, j, tr), key)
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
		fm := findFile(db.v.levels[l], key)
		if fm == nil {
			continue
		}
		m := tr.BlockMark()
		ik, val, ok, err := fm.tbl.GetWith(scratchAt(scs, len(l0)+l-1, tr), key)
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
// shape within budget. The caller runs the flush and the compactions
// itself. Useful in tests and at the end of bulk loads.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.freezeMemLocked(true); err != nil {
		return err
	}
	return db.settleLocked()
}

// Close flushes nothing (the WAL preserves the MemTable) and releases file
// handles. It first refuses new work and waits for the flush and
// compaction jobs that writers are running; writers arriving during the
// drain receive ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bg.closing = true
	db.cond.Broadcast()
	for (db.imm != nil || db.bg.jobs > 0) && db.bg.err == nil {
		db.cond.Wait()
	}
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
// Close, the pipeline's sticky error if a flush failed, nil otherwise.
// Served by the HTTP layer at /healthz.
func (db *DB) Health() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return db.bg.err
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

// LastSeq returns the most recently assigned sequence number.
func (db *DB) LastSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastSeq
}

// --- read views ---------------------------------------------------------

// View is a read-locked snapshot of the tree handed to index algorithms:
// its strata, newest first, and point reads over the same state.
type View struct {
	db     *DB
	strata []Stratum
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
	return fn(&View{db: db, strata: db.strataLocked()})
}

// GetTraced performs a standard newest-wins point read inside the view,
// with read-path phase tracing (tr may be nil).
func (v *View) GetTraced(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	return v.db.getLocked(key, tr)
}

// Strata returns the view's time-ordered strata, newest first: the live
// MemTable, the frozen MemTable while its flush is pending, each level-0
// table (each flush is its own run), then each non-empty deeper level.
// The paper's secondary lookups walk the tree in this order.
func (v *View) Strata() []Stratum { return v.strata }

// Stratum is one time-ordered component of a View: a MemTable, one
// level-0 table or a whole deeper level. Any version of a key it holds is
// newer than every version of that key in the strata after it.
type Stratum struct {
	Level  int         // LSM level of a table stratum; 0 for a MemTable
	Tables []*FileMeta // the level-0 table, or the level's files sorted by key; nil for a MemTable
	Frozen bool        // a frozen MemTable whose flush is pending
	mem    *memTable
}

// strataLocked decomposes the current tree into a View's strata.
func (db *DB) strataLocked() []Stratum {
	l0 := db.v.levels[0]
	out := make([]Stratum, 0, 1+len(l0)+len(db.v.levels))
	out = append(out, Stratum{mem: db.mem})
	if db.imm != nil {
		out = append(out, Stratum{Frozen: true, mem: db.imm})
	}
	for i := range l0 {
		out = append(out, Stratum{Tables: l0[i : i+1 : i+1]})
	}
	for l := 1; l < len(db.v.levels); l++ {
		if files := db.v.levels[l]; len(files) > 0 {
			out = append(out, Stratum{Level: l, Tables: files})
		}
	}
	return out
}

// IsMem reports whether the stratum is a MemTable, live or frozen.
func (s Stratum) IsMem() bool { return s.mem != nil }

// MemGet returns a MemTable stratum's newest record for key.
func (s Stratum) MemGet(key []byte) (value []byte, seq uint64, deleted bool, ok bool) {
	val, seq, kind, ok := s.mem.get(key)
	return val, seq, kind == ikey.KindDelete, ok
}

// MemIter iterates a MemTable stratum in internal-key order.
func (s Stratum) MemIter() *skiplist.Iterator { return s.mem.iter() }

// MemSecTree returns a MemTable stratum's secondary B-tree for attr (nil
// when the attribute is not embedded-indexed).
func (s Stratum) MemSecTree(attr string) *btree.Tree { return s.mem.secTree(attr) }

// MaxSeq returns the highest sequence number in the stratum (0 for an
// empty MemTable), the bound a top-K lookup stops on.
func (s Stratum) MaxSeq() uint64 {
	if s.mem != nil {
		return s.mem.maxSeq
	}
	var m uint64
	for _, fm := range s.Tables {
		m = max(m, fm.tbl.MaxSeq())
	}
	return m
}

// FindFile returns the table of a table stratum that may hold key: a
// level-0 stratum's one table, probed whatever its key range as Get
// probes it, or the file of a deeper level whose range covers key, or nil.
func (s Stratum) FindFile(key []byte) *FileMeta {
	if s.Level == 0 {
		return s.Tables[0]
	}
	return findFile(s.Tables, key)
}

// Overlapping returns the tables of a table stratum that a scan of the
// user keys [loUser, hiUser] visits: a level-0 stratum's one table, or the
// files of a deeper level intersecting the range.
func (s Stratum) Overlapping(loUser, hiUser []byte) []*FileMeta {
	if s.Level == 0 {
		return s.Tables
	}
	return overlappingFiles(s.Tables, loUser, hiUser)
}

// NumStrata is the live stratum count of the tree, len(View.Strata()): the
// cost model's "L" for stand-alone index lookups.
func (db *DB) NumStrata() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.strataLocked())
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

// DistinctBlocks counts the distinct data blocks that a GetSortedTraced of
// keys would read if no bloom filter gave a false positive — metadata
// only, no I/O. A key a MemTable holds needs no block; any other needs the
// first block admitting it in the newest table whose key range and primary
// bloom filter admit it. It is the validation term of the cost model's
// stand-alone LOOKUP/RANGELOOKUP predictions.
func (db *DB) DistinctBlocks(keys [][]byte) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	type block struct {
		table uint64
		i     int
	}
	seen := make(map[block]bool, len(keys))
	strata := db.strataLocked()
	for _, key := range keys {
		for _, s := range strata {
			if s.IsMem() {
				if _, _, _, ok := s.MemGet(key); ok {
					break
				}
				continue
			}
			if fm := s.FindFile(key); fm != nil {
				if i, ok := fm.tbl.PrimaryBlock(key); ok {
					seen[block{fm.tbl.ID(), i}] = true
					break
				}
			}
		}
	}
	return len(seen)
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
