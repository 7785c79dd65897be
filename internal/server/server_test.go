package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leveldbpp/internal/core"
)

func newTestServer(t *testing.T) (*httptest.Server, *core.DB) {
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
	t.Cleanup(func() { ts.Close(); db.Close() })
	return ts, db
}

func do(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestDocLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, _ := do(t, http.MethodPut, ts.URL+"/doc/t1", `{"UserID":"alice","Text":"hi"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/doc/t1", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("alice")) {
		t.Fatalf("GET %d %s", resp.StatusCode, body)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/doc/t1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/doc/t1", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete: %d", resp.StatusCode)
	}
}

func TestLookupEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 20; i++ {
		doc := fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d"}`, i%3, i)
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%03d", ts.URL, i), doc)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d: %s", resp.StatusCode, body)
	}
	var entries []entryJSON
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != "t019" || entries[1].Key != "t016" {
		t.Fatalf("lookup = %+v", entries)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/rangelookup?attr=CreationTime&lo=0000000005&hi=0000000008", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rangelookup status %d", resp.StatusCode)
	}
	json.Unmarshal(body, &entries)
	if len(entries) != 4 {
		t.Fatalf("rangelookup = %d entries", len(entries))
	}
	checkBadQueries(t, ts, "/lookup", "/rangelookup")
}

// badQueryParams are the query strings every query route must refuse
// with 400. Each carries the parameters of both LOOKUP and RANGELOOKUP;
// a route ignores those that are not its own.
var badQueryParams = []string{
	"?value=u1&lo=a&hi=b",                      // missing attr
	"?attr=Nope&value=x&lo=a&hi=b",             // unknown attr
	"?attr=UserID&value=u1&lo=a&hi=b&k=banana", // malformed k
}

// checkBadQueries requests each of routes with every badQueryParams
// string and expects 400.
func checkBadQueries(t *testing.T, ts *httptest.Server, routes ...string) {
	t.Helper()
	for _, route := range routes {
		for _, params := range badQueryParams {
			resp, body := do(t, http.MethodGet, ts.URL+route+params, "")
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s%s status %d, want 400: %s", route, params, resp.StatusCode, body)
			}
		}
	}
}

func TestScanEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 10; i++ {
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/k%02d", ts.URL, i), fmt.Sprintf(`{"UserID":"u","n":%d}`, i))
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/scan?lo=k03&hi=k06", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}
	var entries []entryJSON
	json.Unmarshal(body, &entries)
	if len(entries) != 4 || entries[0].Key != "k03" || entries[3].Key != "k06" {
		t.Fatalf("scan = %+v", entries)
	}
	// Limit.
	resp, body = do(t, http.MethodGet, ts.URL+"/scan?limit=3", "")
	json.Unmarshal(body, &entries)
	if len(entries) != 3 {
		t.Fatalf("limited scan = %d", len(entries))
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	do(t, http.MethodPut, ts.URL+"/doc/old", `{"UserID":"u9"}`)
	batch := `{"ops":[
		{"op":"put","key":"a","value":{"UserID":"u1"}},
		{"op":"put","key":"b","value":{"UserID":"u1"}},
		{"op":"delete","key":"old"}
	]}`
	resp, body := do(t, http.MethodPost, ts.URL+"/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/doc/old", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatal("batch delete not applied")
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1", "")
	var entries []entryJSON
	json.Unmarshal(body, &entries)
	if len(entries) != 2 {
		t.Fatalf("batch puts not indexed: %s", body)
	}

	// Bad batches → 400.
	for _, bad := range []string{`{"ops":[{"op":"zap","key":"x"}]}`, `{"ops":[{"op":"put"}]}`, `not json`} {
		resp, _ := do(t, http.MethodPost, ts.URL+"/batch", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad batch %q status %d", bad, resp.StatusCode)
		}
	}
	// GET on /batch → 405.
	resp, _ = do(t, http.MethodGet, ts.URL+"/batch", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status %d", resp.StatusCode)
	}
}

func TestStatsFlushCheck(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 200; i++ {
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%04d", ts.URL, i),
			fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d","pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`, i%5, i))
	}
	resp, _ := do(t, http.MethodPost, ts.URL+"/flush", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats map[string]interface{}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["index_kind"] != "Lazy" {
		t.Fatalf("stats = %s", body)
	}
	if stats["disk_primary_bytes"].(float64) <= 0 {
		t.Fatal("no disk usage reported after flush")
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/check", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok":true`)) {
		t.Fatalf("check: %d %s", resp.StatusCode, body)
	}
}

func TestOversizedDocumentRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	big := strings.Repeat("x", maxDocBytes+10)
	resp, _ := do(t, http.MethodPut, ts.URL+"/doc/big", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized doc status %d", resp.StatusCode)
	}
}

func TestNonJSONDocumentRoundTrips(t *testing.T) {
	ts, _ := newTestServer(t)
	do(t, http.MethodPut, ts.URL+"/doc/raw", "plain text, not json")
	resp, body := do(t, http.MethodGet, ts.URL+"/doc/raw", "")
	if resp.StatusCode != http.StatusOK || string(body) != "plain text, not json" {
		t.Fatalf("raw doc: %d %q", resp.StatusCode, body)
	}
	// Scan must still return valid JSON (string-encoded payload).
	resp, body = do(t, http.MethodGet, ts.URL+"/scan", "")
	if !json.Valid(body) {
		t.Fatalf("scan emitted invalid JSON: %s", body)
	}
}

func TestMissingKeyAndMethod(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := do(t, http.MethodGet, ts.URL+"/doc/", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty key status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPatch, ts.URL+"/doc/x", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH status %d", resp.StatusCode)
	}
}

func TestCompactAndDebugEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 300; i++ {
		do(t, http.MethodPut, fmt.Sprintf("%s/doc/t%04d", ts.URL, i),
			fmt.Sprintf(`{"UserID":"u%d","pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`, i%5))
	}
	resp, _ := do(t, http.MethodPost, ts.URL+"/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/compact", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compact status %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/debug", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("primary:")) {
		t.Fatalf("debug: %d %s", resp.StatusCode, body)
	}
	// Data still intact after compaction.
	resp, body = do(t, http.MethodGet, ts.URL+"/lookup?attr=UserID&value=u1&k=1", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("t0296")) {
		t.Fatalf("post-compact lookup: %s", body)
	}
}
