package main

import (
	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
	"leveldbpp/internal/workload"
)

// preloadTweets is ingested (Put + Flush) before every measured phase, so
// set-up is seconds of real ingest and timing starts on a three-level tree
// (≈2.9 MB of user bytes against a 1 MiB base level). Three set-ups and the
// measured phase must fit the driver's time cap on a throttled box, which is
// what bounds it.
const preloadTweets = 12000

// users is the UserID population: the paper's 30 tweets per user at the
// preload size, held fixed while the measured phase adds tweets.
const users = preloadTweets / 30

// topK is the K of every LOOKUP and RANGELOOKUP.
const topK = 10

// Selectivity of the two RANGELOOKUP shapes (Table 7a units).
const (
	rangeUsers   = 10
	rangeMinutes = 5
)

// spec is one workload: which front door, which index kind, which cache
// regime and which Table 7b mix. Shares are ops per block of 100.
type spec struct {
	name    string
	why     string
	index   core.IndexKind
	http    bool
	clients int
	cache   int64 // BlockCacheBytes
	put     int
	update  int
	get     int
	lookup  int
	ranges  int
	chunk   int // ops per client in one timed segment (≈ 0.5–1 s here)
	// rate is the nominal throughput in ops/s, all clients together, of this
	// tree on the 2-core box the benchmark was sized on. A run executes
	// rate × seconds operations, rounded to whole segments: op counts, not
	// durations, are what repeat, so flushes and compactions fall at the same
	// operations on every run and the counters repeat with them.
	rate int
}

// segments is the number of timed segments in a run of the given length.
func (sp *spec) segments(seconds float64) int {
	return max(1, int(float64(sp.rate)*seconds/float64(sp.chunk*sp.clients)+0.5))
}

// specs is the gated set. Eager and NoIndex stay outside it: the paper
// drops Eager from sustained runs (§5), and NoIndex is the primary-table
// half of every workload below.
var specs = []*spec{
	{
		name: "wh-lazy", index: core.IndexLazy, clients: 1,
		put: 80, get: 15, lookup: 4, ranges: 1, chunk: 4000, rate: 6500,
		why: "write-heavy on Lazy without a cache: commit, WAL, MemTable, postings write-merge, flush and compaction carry the run",
	},
	{
		name: "rh-embedded", index: core.IndexEmbedded, clients: 1,
		put: 20, get: 55, lookup: 15, ranges: 10, chunk: 400, rate: 1700,
		why: "read-heavy on Embedded without a cache: bloom, zone maps and block decode carry it; no index table or postings, so it bypasses them",
	},
	{
		name: "uh-composite", index: core.IndexComposite, clients: 1, cache: 2 << 20,
		put: 40, update: 40, get: 15, lookup: 4, ranges: 1, chunk: 2500, rate: 4500,
		why: "update-heavy on Composite with a 2 MiB cache under a larger table set: stale entries force validation, the cache evicts",
	},
	{
		name: "http-rh-lazy", index: core.IndexLazy, http: true, clients: 2, cache: 64 << 20,
		put: 20, get: 70, lookup: 8, ranges: 2, chunk: 3000, rate: 10000,
		why: "read-heavy over loopback HTTP with two clients and a cache that holds all data: HTTP+JSON and lock waits carry it, engine I/O is nearly free",
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// options are the engine settings every workload shares: the scaled
// constants of internal/experiments, flate compression on, inline flush and
// compaction, no WAL fsync (table files are still fsynced by the engine).
// Sandbox latencies are not device latencies.
func (sp *spec) options(tr *metrics.Tracer, ev metrics.EventSink) core.Options {
	return core.Options{
		Index:               sp.index,
		Attrs:               []string{workload.AttrUser, workload.AttrTime},
		MemTableBytes:       256 << 10,
		BlockSize:           4 << 10,
		BitsPerKey:          10,
		BaseLevelBytes:      1 << 20,
		LevelMultiplier:     10,
		L0CompactionTrigger: 4,
		MaxLevels:           7,
		SyncMode:            wal.SyncOff,
		BlockCacheBytes:     sp.cache,
		Tracer:              tr,
		Events:              ev,
	}
}
