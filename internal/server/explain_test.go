package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
)

// newTracedServer opens a server over a fully-traced DB so /trace/slow has
// records to filter.
func newTracedServer(t *testing.T) (*httptest.Server, *core.DB) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{
		Index:         core.IndexLazy,
		Attrs:         []string{"UserID", "CreationTime"},
		MemTableBytes: 16 << 10,
		Tracer:        metrics.NewTracer(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(db, Config{Metrics: true}))
	t.Cleanup(func() { ts.Close(); db.Close() })
	return ts, db
}

func seedDocs(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d"}`, i%3, i)
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%03d", ts.URL, i), doc)
	}
}

func TestTraceSlowFilters(t *testing.T) {
	ts, _ := newTracedServer(t)
	seedDocs(t, ts, 30)
	for i := 0; i < 5; i++ {
		do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=2", "")
	}
	do(t, http.MethodGet, ts.URL+"/doc/t001", "")

	type slowResp struct {
		Slow []struct {
			Op     string `json:"op"`
			Detail string `json:"detail"`
		} `json:"slow"`
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/trace/slow?op=lookup", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr slowResp
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Slow) == 0 {
		t.Fatal("no lookup traces")
	}
	for _, rec := range sr.Slow {
		if rec.Op != "lookup" {
			t.Fatalf("op filter leaked %q: %s", rec.Op, body)
		}
		// Satellite: slow-op records carry the explain detail string.
		if rec.Detail != "UserID=u1 plan=posting_merge" {
			t.Fatalf("lookup detail = %q", rec.Detail)
		}
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/trace/slow?op=lookup&limit=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit status %d", resp.StatusCode)
	}
	sr = slowResp{}
	json.Unmarshal(body, &sr)
	if len(sr.Slow) != 2 {
		t.Fatalf("limit=2 returned %d records", len(sr.Slow))
	}

	sr = slowResp{}
	_, body = do(t, http.MethodGet, ts.URL+"/trace/slow?op=nosuchop", "")
	json.Unmarshal(body, &sr)
	if len(sr.Slow) != 0 {
		t.Fatalf("unknown op matched %d records", len(sr.Slow))
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/trace/slow?limit=banana", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/trace/slow?limit=-1", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative limit status %d", resp.StatusCode)
	}
}

func TestExplainEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	seedDocs(t, ts, 30)

	resp, body := do(t, http.MethodGet, ts.URL+"/explain/lookup?attr=UserID&value=u1&k=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain lookup status %d: %s", resp.StatusCode, body)
	}
	var lr struct {
		Report struct {
			Op          string  `json:"op"`
			Index       string  `json:"index"`
			Plan        string  `json:"plan"`
			Results     int     `json:"results"`
			PredictedIO float64 `json:"predicted_io"`
			Formula     string  `json:"formula"`
		} `json:"report"`
		Results []entryJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Report.Op != "lookup" || lr.Report.Index != "Lazy" || lr.Report.Plan != "posting_merge" {
		t.Fatalf("report = %+v", lr.Report)
	}
	if lr.Report.PredictedIO <= 0 || lr.Report.Formula == "" {
		t.Fatalf("missing prediction: %+v", lr.Report)
	}
	if len(lr.Results) != 2 || lr.Report.Results != 2 {
		t.Fatalf("results = %d/%d", len(lr.Results), lr.Report.Results)
	}

	resp, body = do(t, http.MethodGet,
		ts.URL+"/explain/rangelookup?attr=CreationTime&lo=0000000005&hi=0000000010&k=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain rangelookup status %d: %s", resp.StatusCode, body)
	}
	lr.Report.Plan = ""
	json.Unmarshal(body, &lr)
	if lr.Report.Plan != "posting_merge_scan" || len(lr.Results) != 3 {
		t.Fatalf("rangelookup report = %+v (%d results)", lr.Report, len(lr.Results))
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/explain/get?key=t001", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain get status %d", resp.StatusCode)
	}
	var gr struct {
		Found  bool `json:"found"`
		Report struct {
			Plan string `json:"plan"`
		} `json:"report"`
	}
	json.Unmarshal(body, &gr)
	if !gr.Found || gr.Report.Plan != "point_get" {
		t.Fatalf("explain get = %s", body)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/explain/get?key=missing", "")
	gr.Found = true
	json.Unmarshal(body, &gr)
	if gr.Found {
		t.Fatal("missing key reported found")
	}

	// Parameter validation.
	checkBadQueries(t, ts, "/explain/lookup", "/explain/rangelookup")
	if resp, _ := do(t, http.MethodGet, ts.URL+"/explain/get", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/explain/get without key: status %d, want 400", resp.StatusCode)
	}
}

func TestAdvisorEndpoint(t *testing.T) {
	ts, db := newTestServer(t)

	resp, body := do(t, http.MethodGet, ts.URL+"/advisor", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advisor status %d", resp.StatusCode)
	}
	var res struct {
		Configured  string `json:"configured"`
		Recommended string `json:"recommended"`
		Match       bool   `json:"match"`
		Sufficient  bool   `json:"sufficient"`
		Rationale   string `json:"rationale"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Configured != "Lazy" || res.Sufficient {
		t.Fatalf("cold advisor = %+v", res)
	}

	// Enough bounded top-K queries: Lazy is recommended and matches.
	seedDocs(t, ts, 10)
	for i := 0; i < 60; i++ {
		do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=5", "")
	}
	_, body = do(t, http.MethodGet, ts.URL+"/advisor", "")
	json.Unmarshal(body, &res)
	if !res.Sufficient || !res.Match || res.Recommended != "Lazy" || res.Rationale == "" {
		t.Fatalf("warm advisor = %+v", res)
	}
	// Polling /advisor must not emit advisor_flip events.
	for _, e := range db.EventLog().Events() {
		if e.Type == "advisor_flip" {
			t.Fatal("/advisor emitted an advisor_flip event")
		}
	}
}

func TestStatsCommitAndPostings(t *testing.T) {
	ts, _ := newTestServer(t)
	seedDocs(t, ts, 50)
	do(t, http.MethodPost, ts.URL+"/flush", "")
	for i := 0; i < 5; i++ {
		do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=2", "")
	}

	_, body := do(t, http.MethodGet, ts.URL+"/stats", "")
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"primary_io", "index_io"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/stats missing %q: %s", key, body)
		}
	}
	// The commit and posting counters sit in each table's I/O counters.
	for _, key := range []string{"commit_primary", "commit_index", "postings"} {
		if _, ok := stats[key]; ok {
			t.Fatalf("/stats still serves %q: %s", key, body)
		}
	}
	ios := map[string]metrics.Snapshot{}
	for _, key := range []string{"primary_io", "index_io"} {
		var io metrics.Snapshot
		if err := json.Unmarshal(stats[key], &io); err != nil {
			t.Fatal(err)
		}
		if io.Commits <= 0 || io.CommitRecords <= 0 || io.CommitGroups <= 0 || io.IngestBytes <= 0 {
			t.Fatalf("%s = %s", key, stats[key])
		}
		ios[key] = io
	}
	if idx := ios["index_io"]; idx.PostingsEntriesDecoded <= 0 || idx.PostingsBytesDecoded <= 0 {
		t.Fatalf("posting counters did not move: %s", stats["index_io"])
	}
}
