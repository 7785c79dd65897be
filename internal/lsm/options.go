// Package lsm implements the leveled LSM-tree storage engine underneath
// LevelDB++ (paper Appendix A.1/A.2): a WAL-backed MemTable, leveled
// immutable SSTables with 10× fan-out, round-robin leveled compaction,
// tombstone deletes, and exact logical block I/O accounting.
//
// The engine is deliberately single-writer. Flushes and compactions are
// the jobs of one pipeline (background.go): the writer that fills a
// MemTable freezes it and hands its flush, and the compactions after it,
// to a goroutine of their own, as LevelDB's background thread takes its
// imm_, and returns at once. That goroutine stages every version edit,
// applies none and writes the MANIFEST of the version they stage; the
// writer installs them in memory at its next freeze, so every
// version change still happens at a fixed operation count and every
// experiment stays deterministic: the paper picked LevelDB because a
// single-threaded store isolates and explains index costs. Like
// LevelDB's writer queue, every Put, Delete and ApplyAt commits through one
// leader-based queue (commit.go); a lone writer is a group of one, and
// concurrent writers share a WAL write and, under wal.SyncGrouped, an
// fsync. Reads are guarded by an RWMutex and may run concurrently with
// each other.
package lsm

import (
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/vfs"
	"leveldbpp/internal/wal"
)

// Merger combines multiple values of the same user key during flush and
// compaction. The Lazy secondary index uses it to merge the posting-list
// fragments its blind PUTs leave in the MemTable and across levels (paper
// §4.1.2); without one (Options.NewMerger nil) the newest value wins.
type Merger interface {
	// Merge receives every value observed for userKey in this flush or
	// compaction, ordered newest to oldest. bottom reports that no deeper
	// level can contain this key, allowing deletion markers to be dropped
	// (never at flush). Returning keep=false elides the key from the
	// output entirely. merged may alias the Merger's scratch: the engine
	// copies it before the next call.
	Merge(userKey []byte, values [][]byte, bottom bool) (merged []byte, keep bool)
}

// AttrExtractor appends the indexed secondary attribute values of an
// entry to dst and returns the extended slice; it is invoked for every
// MemTable insert and at flush and compaction time to build the Embedded
// index structures. The Value strings it appends may be views of value's
// bytes rather than copies: they hold only while value is unchanged, and
// whoever keeps one past that copies it (btree.Tree.Add and
// sstable.Builder.Add do). The writer and a flush or compaction call it
// at the same time, so it must be safe for concurrent use.
type AttrExtractor func(dst []sstable.AttrValue, userKey, value []byte) []sstable.AttrValue

// Options tunes a DB. The zero value is usable; defaults mirror LevelDB's
// constants scaled to experiment-friendly sizes.
type Options struct {
	// MemTableBytes triggers a flush when the MemTable reaches this size.
	// Default 4 MiB.
	MemTableBytes int64
	// BlockSize is the SSTable data-block target size. Default 4096.
	BlockSize int
	// BitsPerKey sizes primary bloom filters. Default 10.
	BitsPerKey int
	// SecondaryBitsPerKey sizes embedded secondary bloom filters.
	// Default: BitsPerKey.
	SecondaryBitsPerKey int
	// DisableCompression stores SSTable blocks uncompressed (paper
	// Appendix C.2 runs). Default false: blocks are deflated.
	DisableCompression bool
	// L0CompactionTrigger is the number of level-0 files that forces an
	// L0→L1 compaction. Default 4.
	L0CompactionTrigger int
	// BaseLevelBytes is the target size of level 1; level i+1 is
	// LevelMultiplier times larger. Default 10 MiB.
	BaseLevelBytes int64
	// LevelMultiplier is the fan-out between adjacent levels. Default 10
	// (LevelDB's constant; the paper's cost formulas use it as N).
	LevelMultiplier int
	// MaxLevels bounds the tree depth. Default 7.
	MaxLevels int
	// SecondaryAttrs lists attributes to embed bloom filters and zone
	// maps for (the Embedded index). Empty for index tables.
	SecondaryAttrs []string
	// Extract provides attribute values at table-build time; required
	// when SecondaryAttrs is non-empty.
	Extract AttrExtractor
	// NewMerger, when set, returns the Merger that merges multi-version
	// values during flush and compaction. Each flush or compaction job
	// calls it once and is the only user of the Merger it gets, so a
	// Merger may keep scratch across Merge calls without locking.
	NewMerger func() Merger
	// SyncMode selects WAL durability per commit: off (never fsync; the
	// zero value, and the paper's configuration — its throughput
	// experiments run LevelDB in its default async mode) or grouped (one
	// fsync per commit group — concurrent committers share it).
	SyncMode wal.SyncMode
	// BlockCacheBytes enables an LRU block cache of the given capacity,
	// private to this DB: no other DB shares it. 0 disables caching —
	// the paper's configuration ("No block cache was used"), keeping
	// measured block I/O purely algorithmic.
	BlockCacheBytes int64
	// Stats receives I/O accounting. If nil a private IOStats is used.
	Stats *metrics.IOStats
	// Tracer, when set, samples compactions into per-phase traces
	// (OpCompact with compact_merge/compact_write) alongside the
	// foreground ops traced by the layers above. Nil disables.
	Tracer *metrics.Tracer
	// Events, when set, receives structured lifecycle events (MemTable
	// freezes, flush and compaction start/done, WAL rotations — see
	// metrics.EventType). Nil disables event emission. Sinks are called
	// with db.mu held and must not block on this DB. A flush's or
	// compaction's events are emitted, in job order, when its version edit
	// is installed: at the writer's next freeze, or in Flush, CompactRange
	// or Close.
	Events metrics.EventSink

	// FS is the file system the DB's files live on; nil is vfs.Default.
	// Tests set it to fail or park file operations.
	FS vfs.FS
}

func (o *Options) withDefaults() Options {
	opts := Options{}
	if o != nil {
		opts = *o
	}
	if opts.MemTableBytes <= 0 {
		opts.MemTableBytes = 4 << 20
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = 4096
	}
	if opts.BitsPerKey <= 0 {
		opts.BitsPerKey = 10
	}
	if opts.SecondaryBitsPerKey <= 0 {
		opts.SecondaryBitsPerKey = opts.BitsPerKey
	}
	if opts.L0CompactionTrigger <= 0 {
		opts.L0CompactionTrigger = 4
	}
	if opts.BaseLevelBytes <= 0 {
		opts.BaseLevelBytes = 10 << 20
	}
	if opts.LevelMultiplier <= 1 {
		opts.LevelMultiplier = 10
	}
	if opts.MaxLevels <= 1 {
		opts.MaxLevels = 7
	}
	if opts.Stats == nil {
		opts.Stats = &metrics.IOStats{}
	}
	if opts.NewMerger == nil {
		opts.NewMerger = func() Merger { return nil }
	}
	if opts.FS == nil {
		opts.FS = vfs.Default
	}
	return opts
}

func (o Options) compression() sstable.Compression {
	if o.DisableCompression {
		return sstable.NoCompression
	}
	return sstable.FlateCompression
}

func (o Options) tableOptions(compaction bool) sstable.Options {
	return sstable.Options{
		BlockSize:           o.BlockSize,
		BitsPerKey:          o.BitsPerKey,
		SecondaryBitsPerKey: o.SecondaryBitsPerKey,
		Compression:         o.compression(),
		SecondaryAttrs:      o.SecondaryAttrs,
		Stats:               o.Stats,
		CompactionIO:        compaction,
	}
}
