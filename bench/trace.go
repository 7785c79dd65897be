package main

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/workload"
)

// The traced run measures every layer from outside: bench-owned spans
// around the client call and Server.ServeHTTP, the engine's own phase
// tracer at rate 1 read through Breakdown(), an event sink summing flush and
// compaction work, counter snapshots, sampled EXPLAINs, and probes that call
// each layer's public functions on the run's own files (probes.go). Odd
// segments run traced and even ones untraced, so the overhead of tracing is
// measured inside one run on one tree.

// spanHandler is the bench-owned span around Server.ServeHTTP.
type spanHandler struct {
	next http.Handler
	on   atomic.Bool

	serveNS, respBytes, n atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	h.serveNS.Add(int64(time.Since(t0)))
	h.respBytes.Add(cw.n)
	h.n.Add(1)
}

// spanTotals is what the server spans add up to.
type spanTotals struct{ serveNS, respBytes, n float64 }

func (h *spanHandler) totals() spanTotals {
	return spanTotals{float64(h.serveNS.Load()), float64(h.respBytes.Load()), float64(h.n.Load())}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// eventSums is the core.Options.Events sink: flush and compaction work of
// the measured phase, summed over the primary and index tables.
type eventSums struct {
	mu  sync.Mutex
	on  bool        // guarded by mu; off during set-up and warm-up
	sum eventTotals // guarded by mu
}

type eventTotals struct {
	flushes, compactions             int64
	flushUS, compactUS, compactBytes int64
}

func (e *eventSums) Emit(ev metrics.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.on {
		return
	}
	switch ev.Type {
	case metrics.EventFlushDone:
		e.sum.flushes++
		e.sum.flushUS += ev.DurationUS
	case metrics.EventCompactionDone:
		e.sum.compactions++
		e.sum.compactUS += ev.DurationUS
		e.sum.compactBytes += ev.Bytes
	}
}

func (e *eventSums) enable() {
	e.mu.Lock()
	e.on = true
	e.mu.Unlock()
}

func (e *eventSums) totals() eventTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sum
}

// runtimeSnap and runtimeDelta account the Go runtime and the process CPU
// over the timed segments.
type runtimeSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
	cpuNS   int64
}

type runtimeDelta struct {
	allocBytes, pauseNS uint64
	gcs                 uint32
	cpuNS               int64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return runtimeSnap{
		alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs,
		cpuNS: ru.Utime.Nano() + ru.Stime.Nano(),
	}
}

func (d *runtimeDelta) add(a, b runtimeSnap) {
	d.allocBytes += b.alloc - a.alloc
	d.gcs += b.gcs - a.gcs
	d.pauseNS += b.pauseNS - a.pauseNS
	d.cpuNS += b.cpuNS - a.cpuNS
}

// phases indexes Tracer.Breakdown(): per engine operation, how many traces
// finished, their total time and the time in each phase, all in µs.
type phases map[string]metrics.OpBreakdown

func readPhases(t *metrics.Tracer) phases {
	p := phases{}
	for _, b := range t.Breakdown() {
		p[b.Op] = b
	}
	return p
}

// us is the time the given operations spent in phase.
func (p phases) us(phase string, ops ...string) (us float64) {
	for _, op := range ops {
		for _, pt := range p[op].Phases {
			if pt.Phase == phase {
				us += pt.US
			}
		}
	}
	return us
}

func (p phases) count(ops ...string) (n float64) {
	for _, op := range ops {
		n += float64(p[op].Count)
	}
	return n
}

// per is phase time per traced operation of the given kinds.
func (p phases) per(phase string, ops ...string) float64 {
	return ratio(p.us(phase, ops...), p.count(ops...))
}

// coverage is the share of traced operation time the top-level phases
// account for: how much of an operation the layer numbers explain.
func (p phases) coverage(ops ...string) float64 {
	var attributed, total float64
	for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
		if ph.TopLevel() {
			attributed += p.us(ph.String(), ops...)
		}
	}
	for _, op := range ops {
		total += p[op].TotalUS
	}
	return ratio(attributed, total)
}

// explainSums adds up the exact per-operation counters of sampled EXPLAINs.
type explainSums struct {
	ops, queries int64 // queries: the LOOKUPs and RANGELOOKUPs among ops
	results      int64
	io           metrics.Counters // summed over ops
	queryIO      metrics.Counters // summed over queries
}

func addCounters(a *metrics.Counters, b metrics.Counters) {
	a.BloomProbes += b.BloomProbes
	a.BloomFalsePositives += b.BloomFalsePositives
	a.ZoneMapPrunes += b.ZoneMapPrunes
	a.PostingFragments += b.PostingFragments
	a.PostingEntries += b.PostingEntries
	a.Validations += b.Validations
}

// sampleExplain runs EXPLAIN on queries drawn like the workload's own.
func sampleExplain(db *core.DB, st *stream, seed int64, n int) (explainSums, error) {
	var s explainSums
	sample := make([]workload.Tweet, querySample)
	for i := range sample {
		sample[i] = st.tweet(st.written[i*len(st.written)/len(sample)])
	}
	q := workload.NewStaticQueries(sample, seed)
	for i := 0; i < n; i++ {
		get := q.Get()
		_, _, rep, err := db.ExplainGet(get.Key)
		if err != nil {
			return s, err
		}
		s.ops++
		addCounters(&s.io, rep.IO)

		op := q.Lookup(workload.AttrUser, topK)
		switch i % 4 {
		case 2:
			op = q.RangeLookupUsers(rangeUsers, topK)
		case 3:
			op = q.RangeLookupTime(rangeMinutes, topK)
		}
		var es []core.Entry
		if op.Kind == workload.OpLookup {
			es, rep, err = db.ExplainLookup(op.Attr, op.Lo, op.K)
		} else {
			es, rep, err = db.ExplainRangeLookup(op.Attr, op.Lo, op.Hi, op.K)
		}
		if err != nil {
			return s, err
		}
		s.ops++
		s.queries++
		s.results += int64(len(es))
		addCounters(&s.io, rep.IO)
		addCounters(&s.queryIO, rep.IO)
	}
	return s, nil
}

// reads and queries as the engine tracer names them.
var (
	readOps  = []string{"get", "lookup", "rangelookup"}
	queryOps = []string{"lookup", "rangelookup"}
	userOps  = []string{"put", "get", "lookup", "rangelookup"}
)

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	sp      *spec
	un, tr  *tally // untraced and traced segments
	ph      phases
	span    spanTotals // zero in-process
	events  eventTotals
	explain explainSums
	probes  probeResults
	// Primary-table shape when the measured phase ended.
	levels, l0Files int
	referenceMS     float64 // mean reference slice beside the segments
}

// layerMetrics computes every per-layer metric; the table in README.md
// says which end-to-end metric each is expected to move, on which workload.
func layerMetrics(in *layerInputs) map[string]metricValue {
	m := map[string]metricValue{}
	set := func(name string, v float64, unit string) { m[name] = metricValue{v, unit} }
	un, tr, ph := in.un, in.tr, in.ph
	all := float64(un.ops + tr.ops)

	// HTTP layer: spans around the client call and ServeHTTP; the core
	// share of a request is the OpStats time of the same segments.
	serveNS, respBytes, served := in.span.serveNS, in.span.respBytes, in.span.n
	var coreNS, clientNS float64
	if in.sp.http {
		coreNS = tr.coreNS
		for c := 0; c < numClasses; c++ {
			clientNS += float64(tr.latSum(c))
		}
	}
	set("server.serve_us_mean", ratio(serveNS, served)/1e3, "us")
	set("server.self_us_mean", ratio(serveNS-coreNS, served)/1e3, "us")
	set("server.wire_us_mean", ratio(clientNS-serveNS, served)/1e3, "us")
	set("server.resp_bytes_per_op", ratio(respBytes, served), "count")

	// core: the tails behind the gated means (untraced segments), index
	// maintenance and validation.
	for c, name := range classNames {
		set("core."+name+"_p99_us", percentile(un.lat[c], 0.99)/1e3, "us")
	}
	// The query medians sit between two modes — users with fewer than K
	// tweets and users with more — and move 10–25 % with the seed, so they
	// are reported here and not gated.
	set("core.lookup_p50_us", percentile(un.lat[classLookup], 0.5)/1e3, "us")
	set("core.rangelookup_p50_us", percentile(un.lat[classRange], 0.5)/1e3, "us")
	set("core.index_update_us_per_put", ph.per("index_update", "put"), "us")
	set("core.validate_us_per_query", ph.per("validate", queryOps...), "us")
	set("core.validations_per_result", ratio(float64(in.explain.queryIO.Validations), float64(in.explain.results)), "ratio")
	clients := float64(in.sp.clients)
	set("core.put_time_share", ratio(float64(un.latSum(classPut)), un.wall.Seconds()*1e9*clients), "ratio")
	set("core.query_time_share", ratio(float64(un.latSum(classLookup)+un.latSum(classRange)), un.wall.Seconds()*1e9*clients), "ratio")

	// lsm: background work carried by PUTs, and where reads probe.
	ev := in.events
	set("lsm.rotate_us_per_put", ph.per("rotate", "put"), "us")
	set("lsm.flush_count", float64(ev.flushes), "count")
	set("lsm.flush_s", float64(ev.flushUS)/1e6, "s")
	set("lsm.compaction_count", float64(ev.compactions), "count")
	set("lsm.compaction_s", float64(ev.compactUS)/1e6, "s")
	set("lsm.compaction_mb_per_s", ratio(float64(ev.compactBytes), float64(ev.compactUS)), "MB/s")
	set("lsm.compact_merge_s", ph.us("compact_merge", "compact")/1e6, "s")
	set("lsm.compact_write_s", ph.us("compact_write", "compact")/1e6, "s")
	set("lsm.mem_probe_us_per_read", ph.per("mem_probe", readOps...), "us")
	set("lsm.l0_probe_us_per_read", ph.per("l0_probe", readOps...), "us")
	set("lsm.level_probe_us_per_read", ph.per("level_probe", readOps...), "us")
	set("lsm.index_probe_us_per_query", ph.per("index_probe", queryOps...), "us")
	set("lsm.levels", float64(in.levels), "count")
	set("lsm.l0_files_end", float64(in.l0Files), "count")

	set("wal.append_us_per_put", ph.per("wal", "put"), "us")
	set("wal.sync_us_per_put", ph.per("wal_sync", "put"), "us")
	set("wal.probe_append_ns_per_record", in.probes.walNS, "ns")
	set("skiplist.insert_us_per_put", ph.per("mem_insert", "put"), "us")
	set("skiplist.probe_insert_ns_per_key", in.probes.skiplistNS, "ns")

	eq := float64(in.explain.queries)
	set("postings.merge_us_per_lookup", ph.per("posting_merge", queryOps...), "us")
	set("postings.decode_us_per_op", ph.per("postings_decode", userOps...), "us")
	set("postings.entries_decoded_per_lookup", ratio(float64(in.explain.queryIO.PostingEntries), eq), "count")
	set("postings.fragments_per_lookup", ratio(float64(in.explain.queryIO.PostingFragments), eq), "count")

	io := tr.io
	set("sstable.block_load_us_per_read", ph.per("block_load", readOps...), "us")
	set("sstable.block_loads_per_read", ratio(float64(io.Primary.BlockReads+io.Index.BlockReads), float64(tr.reads())), "count")
	set("sstable.entries_decoded_per_get", ratio(float64(io.Primary.EntriesDecoded+io.Index.EntriesDecoded), float64(io.Primary.PointGets+io.Index.PointGets)), "count")
	set("sstable.zone_prunes_per_query", ratio(float64(in.explain.queryIO.ZoneMapPrunes), eq), "count")
	set("sstable.probe_get_us", in.probes.getUS, "us")
	set("sstable.probe_scan_mb_per_s", in.probes.scanMBps, "MB/s")
	set("sstable.probe_build_mb_per_s", in.probes.buildMBps, "MB/s")

	hits := float64(un.io.Primary.CacheHits + un.io.Index.CacheHits + io.Primary.CacheHits + io.Index.CacheHits)
	misses := float64(un.io.Primary.CacheMisses + un.io.Index.CacheMisses + io.Primary.CacheMisses + io.Index.CacheMisses)
	set("cache.hit_rate", ratio(hits, hits+misses), "ratio")
	set("cache.hit_us_per_read", ph.per("cache_hit", readOps...), "us")
	set("bloom.probes_per_query", ratio(float64(in.explain.io.BloomProbes), float64(in.explain.ops)), "count")
	set("bloom.false_positive_rate", ratio(float64(in.explain.io.BloomFalsePositives), float64(in.explain.io.BloomProbes)), "ratio")

	rt := un.rt
	rt.allocBytes += tr.rt.allocBytes
	rt.gcs += tr.rt.gcs
	rt.pauseNS += tr.rt.pauseNS
	rt.cpuNS += tr.rt.cpuNS
	set("runtime.alloc_kb_per_op", ratio(float64(rt.allocBytes)/1024, all), "KiB")
	set("runtime.gc_cycles", float64(rt.gcs), "count")
	set("runtime.gc_pause_ms", float64(rt.pauseNS)/1e6, "ms")
	set("runtime.cpu_s_per_kop", ratio(float64(rt.cpuNS)/1e9, all/1e3), "s")

	set("bench.trace_overhead_pct", (1-ratio(tr.opsPerSRef(), un.opsPerSRef()))*100, "%")
	set("bench.trace_coverage_pct", ph.coverage(userOps...)*100, "%")
	set("bench.reference_ms", in.referenceMS, "ms")
	return m
}
