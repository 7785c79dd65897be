package lsm

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
//lsm:lockorder core.DB.writeMu < lsm.DB.mu < lsm.DB.logMu
//lsm:lockorder lsm.DB.mu < cache.shard.mu

// DB is a single-node LSM key-value store. Writes are serialized. The
// flush and compaction jobs of one pipeline (background.go) keep the tree
// in shape: a freeze hands them to a goroutine of their own, and the
// writer installs what they staged at its next freeze (see package doc).
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

	flushedSeq uint64   // guarded by mu; highest seq durable in SSTables (manifest LastSeq)
	compactPtr [][]byte // guarded by mu; per-level round-robin compaction cursor (user key)
	blockCache *cache.Cache
	closed     bool // guarded by mu

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
}

// Open creates or recovers a DB in dir. If it fails, it closes every
// table it opened and unlinks none.
func Open(dir string, o *Options) (_ *DB, err error) {
	opts := o.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}
	// One listing serves the WAL replay, the next segment's number and
	// the orphan sweep. Without it Open cannot know which segments hold
	// acknowledged writes, so it fails rather than reuse their numbers.
	entries, err := opts.FS.List(dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: list dir: %w", err)
	}
	db := &DB{
		dir:        dir,
		opts:       opts,
		mem:        newMemTable(opts.SecondaryAttrs),
		v:          newVersion(opts.MaxLevels),
		compactPtr: make([][]byte, opts.MaxLevels),
		bg:         &background{},
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
	m, found, err := loadManifest(opts.FS, dir)
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
		db.v.buildStrata()
	}

	// Replay the WAL: records newer than the manifest's sequence were in
	// a MemTable at crash/close time. The WAL is a series of numbered
	// segments; a directory written before segmentation may also hold a
	// single legacy "WAL" file. Every one backs the recovered MemTable and
	// is deleted after its flush (record seqs are unique, so file order is
	// immaterial).
	replayFloor := db.lastSeq
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "WAL-%d", &n); err != nil && e.Name() != "WAL" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		db.memWALs = append(db.memWALs, path)
		db.walSeq = max(db.walSeq, n)
		f, err := opts.FS.Open(path)
		if err != nil {
			return nil, fmt.Errorf("lsm: open WAL: %w", err)
		}
		err = wal.Replay(f, func(r wal.Record) error {
			if r.Seq <= replayFloor {
				return nil // already durable in an SSTable
			}
			db.mem.add(r.Seq, ikey.Kind(r.Kind), r.Key, r.Value, opts.Extract)
			db.lastSeq = max(db.lastSeq, r.Seq)
			return nil
		})
		_ = f.Close() // only read
		if err != nil {
			return nil, err
		}
	}

	db.walSeq++
	seg := walSegmentPath(dir, db.walSeq)
	if db.log, err = db.createWAL(seg); err != nil {
		return nil, err
	}
	db.memWALs = append(db.memWALs, seg)

	// Delete the tables the manifest does not reference, which only a
	// crash leaves: a handoff's added tables before its manifest write,
	// the tables its edits deleted after it.
	live := map[string]bool{}
	for _, level := range db.v.levels {
		for _, fm := range level {
			live[filepath.Base(tablePath(dir, fm.Num))] = true
		}
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".sst" && !live[e.Name()] {
			_ = opts.FS.Remove(filepath.Join(dir, e.Name()))
		}
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

// createWAL creates WAL segment path, truncating any file there.
func (db *DB) createWAL(path string) (*wal.Writer, error) {
	f, err := db.opts.FS.Create(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: create WAL segment: %w", err)
	}
	return wal.NewWriter(f), nil
}

func (db *DB) openTable(fr fileRecord) (*FileMeta, error) {
	f, err := db.opts.FS.Open(tablePath(db.dir, fr.Num))
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

// PutAt writes key → value at sequence number seq, which must be above
// LastSeq; otherwise nothing is written and the error is ErrSeqNotAbove.
// Seqs between LastSeq and seq are skipped; seq 0 takes the next one. A
// secondary index writes its records at the seq of the primary record
// they index. The write is blind: with a Merger configured, the key's
// MemTable versions are combined at flush, not here.
func (db *DB) PutAt(key, value []byte, seq uint64) error {
	return db.write(ikey.KindSet, key, value, seq)
}

// DeleteAt writes a tombstone for key at sequence number seq, under
// PutAt's rule.
func (db *DB) DeleteAt(key []byte, seq uint64) error {
	return db.write(ikey.KindDelete, key, nil, seq)
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
func (db *DB) write(kind ikey.Kind, key, value []byte, seq uint64) error {
	pc := pendingPool.Get().(*pendingCommit)
	pc.one[0] = wal.Record{Kind: byte(kind), Key: key, Value: value, Seq: seq}
	pc.records = pc.one[:]
	return db.commit(pc)
}

// Get returns the newest live value for key, reading the MemTable, then
// the version's table strata newest first: each level-0 file, then one
// file per deeper level. It records read-path phase timings (mem_probe,
// imm_probe, l0_probe, level_probe, plus block_load/cache_hit sub-phases)
// into tr, which may be nil.
func (db *DB) Get(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	return db.getLocked(key, tr)
}

// GetSorted is Get over keys, which must be distinct and in ascending
// order, under one read lock: fn receives each key's index and what Get
// would return for it, in key order, and the first read error ends the
// batch. Each table stratum keeps one scratch across the batch, and
// sorted keys visit its blocks in ascending order. Each read tells its
// scratch the keys after it, so that a block read without a cache is
// inflated as far as the last of them it can hold: keys that share a data
// block read, inflate and count it once. Values alias immutable memory, as
// Get's do.
func (db *DB) GetSorted(keys [][]byte, tr *metrics.Trace, fn func(i int, value []byte, ok bool)) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	scs := make([]sstable.GetScratch, len(db.v.strata))
	for i, key := range keys {
		value, ok, err := db.walkLocked(key, keys[i+1:], tr, scs)
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
	return db.walkLocked(key, nil, tr, sc[:])
}

// walkLocked returns key's newest version, reading the MemTable, the
// frozen MemTable, then the version's table strata, probing in each the
// one file whose range may hold key. Table stratum i reads through scs[i],
// or through scs' only scratch; later, the keys of a sorted batch after
// key, is each scratch's batch hint (sstable.GetScratch.Later).
//
//lsm:hotpath
func (db *DB) walkLocked(key []byte, later [][]byte, tr *metrics.Trace, scs []sstable.GetScratch) ([]byte, bool, error) {
	tr.Enter(metrics.PhaseMemProbe)
	if value, _, kind, ok := db.mem.get(key); ok {
		if kind == ikey.KindDelete {
			return nil, false, nil
		}
		return value, true, nil
	}
	if db.imm != nil { // frozen MemTable: newer than any SSTable
		tr.Enter(metrics.PhaseImmProbe)
		if value, _, kind, ok := db.imm.get(key); ok {
			if kind == ikey.KindDelete {
				return nil, false, nil
			}
			return value, true, nil
		}
	}
	// The returned value aliases immutable block contents (like the
	// MemTable paths alias arena memory), so no per-hit copies are made.
	// level_probe opens after the level-0 strata even when no deeper
	// level exists.
	l0 := len(db.v.levels[0])
	tr.Enter(metrics.PhaseL0Probe)
	for i := range db.v.strata {
		if i == l0 {
			tr.Enter(metrics.PhaseLevelProbe)
		}
		s := &db.v.strata[i]
		fm := s.FindFile(key)
		if fm == nil {
			continue
		}
		tr.AtLevel(s.Level)
		sc := &scs[min(i, len(scs)-1)]
		sc.Trace, sc.Later = tr, later
		ik, val, ok, err := fm.tbl.GetWith(sc, key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if ikey.KindOf(ik) == ikey.KindDelete {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	if len(db.v.strata) == l0 {
		tr.Enter(metrics.PhaseLevelProbe)
	}
	return nil, false, nil
}

// Flush forces the MemTable to level 0 and returns once the tree is back
// in shape: it installs the pending handoff, freezes the MemTable, hands
// its flush and the drain to a handoff, and waits for that handoff and
// installs it. Useful in tests and at the end of bulk loads.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	h, err := db.freezeMemLocked(true, nil)
	if err != nil {
		return err
	}
	return db.awaitLocked(h)
}

// Close flushes nothing (the WAL preserves the MemTable) and releases file
// handles. It first refuses new work, then waits for the pending
// handoff's goroutine, whatever the pipeline's state, and installs it;
// writers arriving meanwhile receive ErrClosed. It returns the first of
// the handoff's failure and a file close error.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bg.closing = true
	firstErr := db.installPendingLocked()
	if db.closed {
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	// A commit leader may be mid-pass (off-mu WAL write); let it
	// land its MemTable inserts before the log closes under it.
	db.waitCommitsLocked()
	db.logMu.Lock()
	if db.log != nil { // nil after a failed WAL rotation
		if err := db.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
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
// Close, the pipeline's sticky error if a flush or a WAL rotation
// failed, nil otherwise.
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

// Stats returns the DB's I/O counters once every flush and compaction
// started before the call has finished: it waits for the pending
// handoff's goroutine, without installing it, so a snapshot taken from
// the result counts the work of every write before it.
func (db *DB) Stats() *metrics.IOStats {
	db.mu.RLock()
	h := db.bg.pending
	db.mu.RUnlock()
	if h != nil {
		<-h.done
	}
	return db.opts.Stats
}

// Counters returns the DB's I/O counters without waiting, for callers
// that add to them (core books the posting decode work of its queries on
// its index tables' counters).
func (db *DB) Counters() *metrics.IOStats { return db.opts.Stats }

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
	for _, p := range slices.Concat(db.memWALs, db.immWALs) {
		if fi, err := db.opts.FS.Stat(p); err == nil {
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

// Get performs a standard newest-wins point read inside the view, with
// read-path phase tracing (tr may be nil).
func (v *View) Get(key []byte, tr *metrics.Trace) ([]byte, bool, error) {
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
	newest []*FileMeta // a deeper level's files by descending MaxSeq
}

// strataLocked puts the MemTables in front of the version's table
// strata: a View's strata.
func (db *DB) strataLocked() []Stratum {
	out := make([]Stratum, 0, 2+len(db.v.strata))
	out = append(out, Stratum{mem: db.mem})
	if db.imm != nil {
		out = append(out, Stratum{Frozen: true, mem: db.imm})
	}
	return append(out, db.v.strata...)
}

// NewestFirst returns the stratum's tables by descending MaxSeq. A
// level's tables are disjoint, so any order gives the same answers, but
// a top-K scan that meets the newest entries first fills its heap with
// them and can skip every table no newer than the heap's oldest entry.
// The order is the version's own: no allocation per call.
func (s Stratum) NewestFirst() []*FileMeta {
	if s.newest == nil {
		return s.Tables
	}
	return s.newest
}

// IsMem reports whether the stratum is a MemTable, live or frozen.
func (s Stratum) IsMem() bool { return s.mem != nil }

// MemGet returns a MemTable stratum's newest record for key; deleted is
// false when the MemTable holds no record for key (ok false).
func (s Stratum) MemGet(key []byte) (value []byte, seq uint64, deleted bool, ok bool) {
	val, seq, kind, ok := s.mem.get(key)
	return val, seq, ok && kind == ikey.KindDelete, ok
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

// NumStrata is the live stratum count of the tree, len(View.Strata()): the
// cost model's "L" for stand-alone index lookups.
func (db *DB) NumStrata() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.imm != nil {
		return 2 + len(db.v.strata)
	}
	return 1 + len(db.v.strata)
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
			first, end := fm.tbl.OverlappingBlocks(loUser, hiExcl)
			n += end - first
		}
	}
	return n
}

// DistinctBlocks counts the distinct data blocks that a GetSorted of
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
	for _, key := range keys {
		if _, _, _, ok := db.mem.get(key); ok {
			continue
		}
		if db.imm != nil {
			if _, _, _, ok := db.imm.get(key); ok {
				continue
			}
		}
		for _, s := range db.v.strata {
			if fm := s.FindFile(key); fm != nil {
				if i, ok := fm.tbl.PrimaryBlock(key, nil); ok {
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
