package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"leveldbpp/internal/core"
)

// pinnedMetricsGolden holds the normalized /metrics exposition of
// pinnedWorkload: the sorted # HELP / # TYPE lines, then every sample
// (name, sorted labels, value), sorted.
var pinnedMetricsGolden = filepath.Join("testdata", "metrics.golden")

// pinnedWorkload drives a fixed single-writer workload through a
// deterministic-mode Lazy DB: enough puts to flush and compact both
// tables, overwrites that leave stale postings, deletes, and every read
// operation, then one EXPLAIN so the model-drift gauges have a sample.
func pinnedWorkload(t *testing.T) []byte {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{
		Index:         core.IndexLazy,
		Attrs:         []string{"UserID", "CreationTime"},
		MemTableBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(db, Config{Metrics: true}))
	defer func() { ts.Close(); db.Close() }()

	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("t%04d", i%450)
		doc := fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d","pad":"%0120d"}`, i%13, i, i)
		if err := db.Put(key, []byte(doc)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := db.Delete(fmt.Sprintf("t%04d", i-7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 40; i++ {
		if _, _, err := db.Get(fmt.Sprintf("t%04d", i*11)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Lookup("UserID", fmt.Sprintf("u%d", i%13), 5); err != nil {
			t.Fatal(err)
		}
		lo := fmt.Sprintf("%010d", i*13)
		if _, err := db.RangeLookup("CreationTime", lo, fmt.Sprintf("%010d", i*13+40), 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	do(t, http.MethodGet, ts.URL+"/explain/lookup?attr=UserID&value=u3&k=5", "")
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return body
}

// normalizeMetrics renders an exposition as the pinned form. Latency
// samples (lsmpp_op_latency_seconds) keep their name and labels but not
// their value; lsmpp_ingest_bytes_total is left out.
func normalizeMetrics(t *testing.T, body []byte) string {
	t.Helper()
	parsePrometheus(t, body) // strict format check
	var comments, samples []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.Contains(line, "lsmpp_ingest_bytes_total") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		var labels []string
		for _, lm := range labelRE.FindAllStringSubmatch(m[2], -1) {
			labels = append(labels, lm[1]+"="+lm[2])
		}
		sort.Strings(labels)
		value := m[3]
		if strings.HasPrefix(m[1], "lsmpp_op_latency_seconds") {
			value = "-"
		}
		samples = append(samples, m[1]+"{"+strings.Join(labels, ",")+"} "+value)
	}
	sort.Strings(comments)
	sort.Strings(samples)
	return strings.Join(comments, "\n") + "\n" + strings.Join(samples, "\n") + "\n"
}

// TestMetricsPinned holds /metrics after pinnedWorkload to the golden:
// every family's help and type, every series, and every value except
// the latency histograms'.
func TestMetricsPinned(t *testing.T) {
	got := normalizeMetrics(t, pinnedWorkload(t))
	want, _ := os.ReadFile(pinnedMetricsGolden) // a missing golden fails below, printing got
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			break
		}
	}
	t.Fatalf("/metrics differs from %s; full output:\n%s", pinnedMetricsGolden, got)
}
