// Prometheus text-format rendering for GET /metrics (DESIGN.md §5.3).
// Every series carries the lsmpp_ prefix; I/O counters are labelled
// table="primary"|"index" (index = sum over all attribute index tables),
// latency histograms are labelled op="get"|"put"|..., and level-shape
// gauges are labelled per table name as reported by core.LevelShapes.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"

	"leveldbpp/internal/core"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
)

// tableGauges are the per-table ratios derived from the IOStats counters.
var tableGauges = []struct {
	name, help string
	get        func(metrics.Snapshot) float64
}{
	{"lsmpp_block_cache_hit_ratio", "Fraction of block reads served from cache (0 when no reads).",
		metrics.Snapshot.CacheHitRatio},
	{"lsmpp_entries_decoded_per_get", "Mean block entries decoded per point read.",
		metrics.Snapshot.EntriesDecodedPerGet},
	{"lsmpp_fsyncs_per_commit", "fsyncs divided by commits (0 when no commits).",
		metrics.Snapshot.FsyncsPerCommit},
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Render into a buffer first so a slow client cannot hold DB
	// accessors open and a render error cannot emit a torn exposition.
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (s *Server) writeMetrics(w io.Writer) {
	st := s.db.Stats()
	tables := []struct {
		labels string
		sn     metrics.Snapshot
	}{
		{metrics.Labels(map[string]string{"table": "primary"}), st.Primary},
		{metrics.Labels(map[string]string{"table": "index"}), st.Index},
	}

	// Every IOStats counter (DESIGN.md §5.3), then the ratios derived
	// from them.
	for _, c := range metrics.IOCounters {
		metrics.WriteMetricHeader(w, c.Name, c.Help, "counter")
		for _, t := range tables {
			metrics.WriteSample(w, c.Name, t.labels, c.Value(t.sn))
		}
	}
	for _, g := range tableGauges {
		metrics.WriteMetricHeader(w, g.name, g.help, "gauge")
		for _, t := range tables {
			metrics.WriteSample(w, g.name, t.labels, g.get(t.sn))
		}
	}

	// Commits-per-WAL-write histogram, one series set per table name
	// (sorted for a deterministic exposition).
	hists := s.db.GroupSizeHists()
	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	metrics.WriteMetricHeader(w, "lsmpp_commit_group_size",
		"Commits per WAL write pass (group commit batching).", "histogram")
	for _, name := range histNames {
		hists[name].WritePrometheus(w, "lsmpp_commit_group_size",
			map[string]string{"table": name})
	}

	// Per-operation latency histograms (always on, independent of trace
	// sampling): one shared header, one label set per operation.
	ops := s.db.OpStats()
	metrics.WriteMetricHeader(w, "lsmpp_op_latency_seconds",
		"End-to-end operation latency in seconds.", "histogram")
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		ops.Hist(op).WritePrometheus(w, "lsmpp_op_latency_seconds",
			map[string]string{"op": op.String()})
	}

	// Level shapes: files / bytes / entries per (table, level). Table names
	// are sorted so the exposition is deterministic.
	shapes := s.db.LevelShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	levelGauges := []struct {
		name, help string
		get        func(li lsm.LevelInfo) float64
	}{
		{"lsmpp_level_files", "SSTable files per level.",
			func(li lsm.LevelInfo) float64 { return float64(li.Files) }},
		{"lsmpp_level_bytes", "On-disk bytes per level.",
			func(li lsm.LevelInfo) float64 { return float64(li.Bytes) }},
		{"lsmpp_level_entries", "Stored entries per level.",
			func(li lsm.LevelInfo) float64 { return float64(li.Entries) }},
	}
	for _, g := range levelGauges {
		metrics.WriteMetricHeader(w, g.name, g.help, "gauge")
		for _, name := range names {
			for _, li := range shapes[name] {
				metrics.WriteSample(w, g.name, metrics.Labels(map[string]string{
					"table": name,
					"level": fmt.Sprintf("%d", li.Level),
				}), g.get(li))
			}
		}
	}

	// Lifecycle event counts by type (flushes, compactions, WAL
	// rotations, ...), straight from the shared event log.
	counts := s.db.EventLog().Counts()
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, string(t))
	}
	sort.Strings(types)
	metrics.WriteMetricHeader(w, "lsmpp_events_total",
		"Lifecycle events observed, by type.", "counter")
	for _, t := range types {
		metrics.WriteSample(w, "lsmpp_events_total",
			metrics.Labels(map[string]string{"type": t}), float64(counts[metrics.EventType(t)]))
	}

	if prim, idx, err := s.db.DiskUsage(); err == nil {
		metrics.WriteMetricHeader(w, "lsmpp_disk_bytes",
			"On-disk SSTable bytes.", "gauge")
		metrics.WriteSample(w, "lsmpp_disk_bytes",
			metrics.Labels(map[string]string{"table": "primary"}), float64(prim))
		metrics.WriteSample(w, "lsmpp_disk_bytes",
			metrics.Labels(map[string]string{"table": "index"}), float64(idx))
	}

	metrics.WriteMetricHeader(w, "lsmpp_filter_memory_bytes",
		"Resident memory of Bloom filters and zone maps.", "gauge")
	metrics.WriteSample(w, "lsmpp_filter_memory_bytes", "", float64(s.db.FilterMemoryUsage()))

	metrics.WriteMetricHeader(w, "lsmpp_last_sequence_number",
		"Newest assigned sequence number.", "gauge")
	metrics.WriteSample(w, "lsmpp_last_sequence_number", "", float64(s.db.LastSeq()))

	metrics.WriteMetricHeader(w, "lsmpp_trace_sample_rate",
		"Configured per-operation trace sampling rate.", "gauge")
	metrics.WriteSample(w, "lsmpp_trace_sample_rate", "", s.db.Tracer().Rate())

	// Cost-model accuracy (DESIGN.md §5.7): per-op rolling mean of the
	// observed/predicted I/O ratio, its sample count, and the drift flag —
	// from the workload profiler's snapshot, so scrapes emit no events.
	workload := s.db.Profiler().Snapshot()
	ratioOps := make([]string, 0, len(workload.Ratios))
	for op := range workload.Ratios {
		ratioOps = append(ratioOps, op)
	}
	sort.Strings(ratioOps)
	metrics.WriteMetricHeader(w, "lsmpp_model_ratio_mean",
		"Rolling mean of observed/predicted I/O per operation kind.", "gauge")
	for _, op := range ratioOps {
		metrics.WriteSample(w, "lsmpp_model_ratio_mean",
			metrics.Labels(map[string]string{"op": op}), workload.Ratios[op].Mean)
	}
	metrics.WriteMetricHeader(w, "lsmpp_model_ratio_samples",
		"Observed/predicted ratios in the rolling window, per operation kind.", "gauge")
	for _, op := range ratioOps {
		metrics.WriteSample(w, "lsmpp_model_ratio_samples",
			metrics.Labels(map[string]string{"op": op}), float64(workload.Ratios[op].Count))
	}
	metrics.WriteMetricHeader(w, "lsmpp_model_drifted",
		"1 when an operation kind's cost-model drift flag is raised.", "gauge")
	for _, op := range ratioOps {
		v := 0.0
		if workload.Ratios[op].Drifted {
			v = 1
		}
		metrics.WriteSample(w, "lsmpp_model_drifted",
			metrics.Labels(map[string]string{"op": op}), v)
	}

	// Online advisor (pure evaluation — no advisor_flip events from
	// scrapes): whether the configured kind matches the recommendation,
	// and the recommended kind as a one-hot gauge.
	check := s.monitor.Evaluate()
	metrics.WriteMetricHeader(w, "lsmpp_advisor_match",
		"1 when the advisor's recommended index kind matches the configured one.", "gauge")
	matchV := 0.0
	if check.Match {
		matchV = 1
	}
	metrics.WriteSample(w, "lsmpp_advisor_match", "", matchV)
	metrics.WriteMetricHeader(w, "lsmpp_advisor_recommended",
		"One-hot: 1 on the index kind the advisor currently recommends.", "gauge")
	for kind := core.IndexNone; kind <= core.IndexComposite; kind++ {
		v := 0.0
		if kind.String() == check.Recommended {
			v = 1
		}
		metrics.WriteSample(w, "lsmpp_advisor_recommended",
			metrics.Labels(map[string]string{"kind": kind.String()}), v)
	}
	metrics.WriteMetricHeader(w, "lsmpp_advisor_profiled_ops",
		"Operations aggregated by the workload profiler.", "gauge")
	metrics.WriteSample(w, "lsmpp_advisor_profiled_ops", "", float64(workload.TotalOps))

	metrics.WriteMetricHeader(w, "lsmpp_http_encode_errors_total",
		"HTTP responses whose JSON encoding failed mid-write.", "counter")
	metrics.WriteSample(w, "lsmpp_http_encode_errors_total", "", float64(s.encodeErrors.Load()))
}
