// Package lsm implements the leveled LSM-tree storage engine underneath
// LevelDB++ (paper Appendix A.1/A.2): a WAL-backed MemTable, leveled
// immutable SSTables with 10× fan-out, round-robin leveled compaction,
// tombstone deletes, and exact logical block I/O accounting.
//
// The engine is deliberately single-writer. Flushes and compactions are
// the jobs of one pipeline (background.go), and the writer that fills a
// MemTable runs them before its write returns: the paper picked LevelDB
// because a single-threaded store isolates and explains index costs, and
// writer-run jobs additionally make every experiment deterministic. Like
// LevelDB's writer queue, every Put, Delete and Apply commits through one
// leader-based queue (commit.go); a lone writer is a group of one, and
// concurrent writers share a WAL write and, under wal.SyncGrouped, an
// fsync. Reads are guarded by an RWMutex and may run concurrently with
// each other.
package lsm

import (
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/wal"
)

// Merger combines multiple values of the same user key during flush and
// compaction. The Lazy secondary index uses it to merge the posting-list
// fragments its blind PUTs leave in the MemTable and across levels (paper
// §4.1.2); the default (nil) behaviour keeps only the newest value.
type Merger interface {
	// Merge receives every value observed for userKey in this flush or
	// compaction, ordered newest to oldest. bottom reports that no deeper
	// level can contain this key, allowing deletion markers to be dropped
	// (never at flush). Returning keep=false elides the key from the
	// output entirely.
	Merge(userKey []byte, values [][]byte, bottom bool) (merged []byte, keep bool)
}

// MergerForker is optionally implemented by Mergers that carry per-call
// scratch state. The engine calls ForkMerger once per flush or
// compaction job and merges through the fork only, so each job has a
// private scratch that is dropped when the job ends. A Merger that does
// not implement it is shared by every job, and a flush and jobs on
// disjoint level pairs may run at once, so it must be safe for
// concurrent use.
type MergerForker interface {
	Merger
	// ForkMerger returns a Merger with private mutable state; shared
	// counters may be retained (they must be concurrency-safe).
	ForkMerger() Merger
}

// AttrExtractor appends the indexed secondary attribute values of an
// entry to dst and returns the extended slice; it is invoked for every
// MemTable insert and at flush and compaction time to build the Embedded
// index structures. The Value strings it appends may be views of value's
// bytes rather than copies: they hold only while value is unchanged, and
// whoever keeps one past that copies it (btree.Tree.Add and
// sstable.Builder.Add do).
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
	// Merge, when set, merges multi-version values during flush and
	// compaction.
	Merge Merger
	// SyncMode selects WAL durability per commit: off (never fsync; the
	// zero value, and the paper's configuration — its throughput
	// experiments run LevelDB in its default async mode), always (one
	// fsync per logical commit), or grouped (one fsync per commit group —
	// concurrent committers share it).
	SyncMode wal.SyncMode
	// BlockCacheBytes enables an LRU block cache of the given capacity.
	// 0 disables caching — the paper's configuration ("No block cache
	// was used"), keeping measured block I/O purely algorithmic.
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
	// with db.mu held and must not block on this DB.
	Events metrics.EventSink
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
