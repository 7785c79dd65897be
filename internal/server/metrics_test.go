package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"leveldbpp/internal/core"
)

func mustDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{
		Index: core.IndexLazy,
		Attrs: []string{"UserID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$`)
	labelRE  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// parsePrometheus is a strict parser for the Prometheus text format subset
// the server emits: it fails the test on any malformed line, HELP/TYPE
// lines for names that never get a sample, or samples with no prior TYPE.
func parsePrometheus(t *testing.T, body []byte) []promSample {
	t.Helper()
	var out []promSample
	typeOf := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("bad metric type in %q", line)
				}
				typeOf[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" && m[3] != "-Inf" && m[3] != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, lm := range labelRE.FindAllStringSubmatch(m[2], -1) {
				labels[lm[1]] = lm[2]
			}
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suffix) && typeOf[strings.TrimSuffix(base, suffix)] == "histogram" {
				base = strings.TrimSuffix(base, suffix)
			}
		}
		if _, ok := typeOf[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		if !strings.HasPrefix(m[1], "lsmpp_") {
			t.Fatalf("series %q lacks the lsmpp_ prefix", m[1])
		}
		out = append(out, promSample{name: m[1], labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func find(samples []promSample, name string, labels map[string]string) []promSample {
	var out []promSample
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			out = append(out, s)
		}
	}
	return out
}

// TestMetricsPrometheusRoundTrip drives all four paper operations through
// the HTTP API and verifies /metrics parses as Prometheus text with I/O
// counters for both tables and complete latency histograms per operation.
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 120; i++ {
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%04d", ts.URL, i),
			fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d","pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}`, i%7, i))
	}
	do(t, http.MethodPost, ts.URL+"/flush", "")
	for i := 0; i < 30; i++ {
		do(t, http.MethodGet, fmt.Sprintf("%s/doc/t%04d", ts.URL, i), "")
		do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=3", "")
		do(t, http.MethodGet, ts.URL+"/rangelookup?attr=CreationTime&lo=0000000000&hi=0000000020", "")
	}
	// One EXPLAIN feeds the model-drift tracker so lsmpp_model_* gauges
	// have a sample to export.
	do(t, http.MethodGet, ts.URL+"/explain/lookup?attr=UserID&value=u1&k=3", "")

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := parsePrometheus(t, body)
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}

	// I/O counters exist for both tables, and the read path did real work.
	for _, table := range []string{"primary", "index"} {
		ss := find(samples, "lsmpp_block_reads_total", map[string]string{"table": table})
		if len(ss) != 1 {
			t.Fatalf("lsmpp_block_reads_total{table=%q}: %d samples", table, len(ss))
		}
		if table == "primary" && ss[0].value <= 0 {
			t.Fatal("primary block reads not counted")
		}
	}

	// Latency histograms: every operation the test drove has a complete
	// cumulative bucket series whose +Inf bucket equals _count.
	for _, op := range []string{"get", "put", "lookup", "rangelookup"} {
		lbl := map[string]string{"op": op}
		buckets := find(samples, "lsmpp_op_latency_seconds_bucket", lbl)
		if len(buckets) < 2 {
			t.Fatalf("op=%s: only %d bucket samples", op, len(buckets))
		}
		count := find(samples, "lsmpp_op_latency_seconds_count", lbl)
		sum := find(samples, "lsmpp_op_latency_seconds_sum", lbl)
		if len(count) != 1 || len(sum) != 1 {
			t.Fatalf("op=%s: count/sum samples = %d/%d", op, len(count), len(sum))
		}
		if count[0].value <= 0 {
			t.Fatalf("op=%s: zero observations", op)
		}
		if sum[0].value <= 0 {
			t.Fatalf("op=%s: zero latency sum", op)
		}
		// Buckets are cumulative: sort by le and check monotonicity.
		sort.Slice(buckets, func(i, j int) bool {
			return leValue(t, buckets[i]) < leValue(t, buckets[j])
		})
		last := buckets[len(buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Fatalf("op=%s: largest bucket is le=%q, want +Inf", op, last.labels["le"])
		}
		if last.value != count[0].value {
			t.Fatalf("op=%s: +Inf bucket %v != count %v", op, last.value, count[0].value)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].value < buckets[i-1].value {
				t.Fatalf("op=%s: bucket le=%s (%v) < le=%s (%v)", op,
					buckets[i].labels["le"], buckets[i].value,
					buckets[i-1].labels["le"], buckets[i-1].value)
			}
		}
	}

	// Level shapes appeared for the flushed primary table.
	if ss := find(samples, "lsmpp_level_files", map[string]string{"table": "primary"}); len(ss) == 0 {
		t.Fatal("no lsmpp_level_files for primary after flush")
	}
	// The flush left lifecycle events behind.
	if ss := find(samples, "lsmpp_events_total", map[string]string{"type": "flush_done"}); len(ss) != 1 || ss[0].value <= 0 {
		t.Fatalf("lsmpp_events_total{type=flush_done} missing or zero: %v", ss)
	}

	// Advisor gauges: the profiled op count moved, the match flag is 0/1,
	// and the recommendation one-hot has exactly one kind set.
	if ss := find(samples, "lsmpp_advisor_profiled_ops", nil); len(ss) != 1 || ss[0].value <= 0 {
		t.Fatalf("lsmpp_advisor_profiled_ops: %v", ss)
	}
	if ss := find(samples, "lsmpp_advisor_match", nil); len(ss) != 1 || (ss[0].value != 0 && ss[0].value != 1) {
		t.Fatalf("lsmpp_advisor_match: %v", ss)
	}
	hot := 0.0
	for _, s := range find(samples, "lsmpp_advisor_recommended", nil) {
		hot += s.value
	}
	if hot != 1 {
		t.Fatalf("lsmpp_advisor_recommended one-hot sums to %v", hot)
	}

	// Model-drift gauges exist for the op the EXPLAIN call fed.
	lbl := map[string]string{"op": "lookup"}
	if ss := find(samples, "lsmpp_model_ratio_samples", lbl); len(ss) != 1 || ss[0].value <= 0 {
		t.Fatalf("lsmpp_model_ratio_samples{op=lookup}: %v", ss)
	}
	if ss := find(samples, "lsmpp_model_ratio_mean", lbl); len(ss) != 1 || ss[0].value <= 0 {
		t.Fatalf("lsmpp_model_ratio_mean{op=lookup}: %v", ss)
	}
	if ss := find(samples, "lsmpp_model_drifted", lbl); len(ss) != 1 {
		t.Fatalf("lsmpp_model_drifted{op=lookup}: %v", ss)
	}
}

// TestMetricsCompactionSeries checks the compaction series /metrics
// serves: the L0 write-stall counter for both tables, and none of the
// retired sub-compaction partition and worker series.
func TestMetricsCompactionSeries(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 200; i++ {
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%04d", ts.URL, i),
			fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d","pad":"%0200d"}`, i%7, i, i))
	}
	do(t, http.MethodPost, ts.URL+"/flush", "")
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	samples := parsePrometheus(t, body)
	for _, table := range []string{"primary", "index"} {
		ss := find(samples, "lsmpp_compaction_stall_seconds_total", map[string]string{"table": table})
		if len(ss) != 1 || ss[0].value < 0 {
			t.Fatalf("lsmpp_compaction_stall_seconds_total{table=%q}: %v", table, ss)
		}
	}
	for _, gone := range []string{"lsmpp_compaction_subcompactions_total", "lsmpp_compaction_workers_busy"} {
		if bytes.Contains(body, []byte(gone)) {
			t.Errorf("/metrics still serves %s", gone)
		}
	}
}

func leValue(t *testing.T, s promSample) float64 {
	t.Helper()
	le := s.labels["le"]
	if le == "+Inf" {
		return 1e308
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le label %q", le)
	}
	return v
}

func TestHealthzAndEventsEndpoints(t *testing.T) {
	ts, db := newTestServer(t)

	resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var health map[string]interface{}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body %s", body)
	}

	do(t, http.MethodPut, ts.URL+"/doc/e1", `{"UserID":"u1"}`)
	do(t, http.MethodPost, ts.URL+"/flush", "")
	resp, body = do(t, http.MethodGet, ts.URL+"/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("flush_done")) {
		t.Fatalf("event log missing flush_done: %s", body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/trace/slow", "")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("trace/slow: %d %s", resp.StatusCode, body)
	}

	// A closed database is unhealthy.
	db.Close()
	resp, _ = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d", resp.StatusCode)
	}
}

// TestWriteJSONCountsEncodeErrors exercises the repaired error path:
// encoding failures are counted, reported by /stats, and exported.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	s := New(mustDB(t))
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, make(chan int)) // channels are unencodable
	if got := s.EncodeErrors(); got != 1 {
		t.Fatalf("EncodeErrors = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]int{"fine": 1})
	if got := s.EncodeErrors(); got != 1 {
		t.Fatalf("EncodeErrors after good write = %d, want 1", got)
	}

	// The running server reports the counter through /stats and /metrics.
	resp, body := do(t, http.MethodGet, ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats map[string]interface{}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["encode_errors"]; !ok {
		t.Fatalf("stats missing encode_errors: %s", body)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if !bytes.Contains(body, []byte("lsmpp_http_encode_errors_total")) {
		t.Fatal("metrics missing lsmpp_http_encode_errors_total")
	}
}

func TestPprofGating(t *testing.T) {
	db := mustDB(t)
	off := httptest.NewServer(NewWith(db, Config{Metrics: false}))
	defer off.Close()
	resp, _ := do(t, http.MethodGet, off.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, off.URL+"/metrics", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics off: status %d", resp.StatusCode)
	}

	on := httptest.NewServer(NewWith(db, Config{Metrics: true, Pprof: true}))
	defer on.Close()
	resp, body := do(t, http.MethodGet, on.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("profile")) {
		t.Fatalf("pprof on: %d", resp.StatusCode)
	}
}
