package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
)

// TestEveryCounterDeclared holds metrics.IOCounters to the counter set:
// every Snapshot field (and its IOStats twin) has exactly one row, each
// row has a unique lsmpp_*_total name and help text, and /metrics serves
// every row's family for both tables.
func TestEveryCounterDeclared(t *testing.T) {
	nameRE := regexp.MustCompile(`^lsmpp_[a-z0-9_]+_total$`)
	rows, names := map[string]int{}, map[string]bool{}
	for _, c := range metrics.IOCounters {
		rows[c.Field]++
		if !nameRE.MatchString(c.Name) || names[c.Name] {
			t.Errorf("row %s: name %q is not a unique lsmpp_*_total name", c.Field, c.Name)
		}
		names[c.Name] = true
		if c.Help == "" {
			t.Errorf("row %s has no help", c.Field)
		}
	}
	sn, io := reflect.TypeFor[metrics.Snapshot](), reflect.TypeFor[metrics.IOStats]()
	for i := 0; i < sn.NumField(); i++ {
		if f := sn.Field(i).Name; rows[f] != 1 {
			t.Errorf("Snapshot.%s has %d IOCounters rows, want 1", f, rows[f])
		}
	}
	for i := 0; i < io.NumField(); i++ {
		if _, ok := sn.FieldByName(io.Field(i).Name); !ok {
			t.Errorf("IOStats.%s has no Snapshot field", io.Field(i).Name)
		}
	}
	if io.NumField() != sn.NumField() {
		t.Errorf("IOStats has %d fields, Snapshot %d", io.NumField(), sn.NumField())
	}

	ts := httptest.NewServer(NewWith(mustDB(t), Config{Metrics: true}))
	defer ts.Close()
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	samples := parsePrometheus(t, body)
	for _, c := range metrics.IOCounters {
		for _, table := range []string{"primary", "index"} {
			if n := len(find(samples, c.Name, map[string]string{"table": table})); n != 1 {
				t.Errorf("/metrics has %d %s{table=%q} samples, want 1", n, c.Name, table)
			}
		}
	}
}

// TestScrapeDuringBackgroundWrites scrapes /metrics and /stats in a loop
// while concurrent writers commit and run the flushes and compactions
// their writes trigger: the counters they read are atomics, so a scrape
// takes no engine lock for them. The commit counters never go
// backwards between scrapes and end at the number of writes. Wired into
// `make lint-race`.
func TestScrapeDuringBackgroundWrites(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{
		Index:               core.IndexLazy,
		Attrs:               []string{"UserID", "CreationTime"},
		MemTableBytes:       8 << 10,
		L0CompactionTrigger: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(NewWith(db, Config{Metrics: true}))
	defer ts.Close()

	const writers, perWriter = 2, 600
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				doc := fmt.Sprintf(`{"UserID":"u%d","CreationTime":"%010d","pad":"%0100d"}`, i%11, i, i)
				if err := db.Put(fmt.Sprintf("w%d-%05d", w, i), []byte(doc)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var lastMetrics, lastStats float64
	scrapes := 0
	scrape := func() {
		scrapes++
		_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
		ss := find(parsePrometheus(t, body), "lsmpp_commits_total", map[string]string{"table": "primary"})
		if len(ss) != 1 || ss[0].value < lastMetrics {
			t.Fatalf("lsmpp_commits_total{table=primary} = %v after %v", ss, lastMetrics)
		}
		lastMetrics = ss[0].value

		_, body = do(t, http.MethodGet, ts.URL+"/stats", "")
		var stats struct {
			PrimaryIO metrics.Snapshot `json:"primary_io"`
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		c := float64(stats.PrimaryIO.Commits)
		if c < lastStats {
			t.Fatalf("/stats primary commits went %v → %v", lastStats, c)
		}
		lastStats = c
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		scrape()
	}
	t.Logf("%d scrapes overlapped the writers", scrapes)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	scrape()
	if lastMetrics != writers*perWriter {
		t.Fatalf("lsmpp_commits_total{table=primary} = %v, want %d", lastMetrics, writers*perWriter)
	}
	counts := db.EventLog().Counts()
	if counts[metrics.EventFlushDone] == 0 || counts[metrics.EventCompactionDone] == 0 {
		t.Fatalf("no flush or compaction ran: %v", counts)
	}
}
