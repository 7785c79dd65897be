package lsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"leveldbpp/internal/metrics"
)

// firstIndex returns the position of the first event of type typ, or -1.
func firstIndex(evs []metrics.Event, typ metrics.EventType) int {
	for i, e := range evs {
		if e.Type == typ {
			return i
		}
	}
	return -1
}

// TestBackgroundEventOrdering has concurrent writers drive the pipeline
// until flushes and compactions have run, then checks that the event log
// tells the lifecycle story in causal order: a MemTable freeze precedes
// the flush it feeds, the flush completes before any compaction of its
// output starts, and start/done pairs balance once Close drains the jobs.
func TestBackgroundEventOrdering(t *testing.T) {
	log := metrics.NewEventLog(4096)
	o := smallOpts()
	o.Events = log
	dir := t.TempDir()
	db, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	writeConcurrently(t, db, 4, 1000)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	closeWithin(t, db)

	evs := log.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// Sequence numbers are strictly increasing (Events returns oldest
	// first), so index order below is emission order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event %d seq %d <= previous %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}

	counts := log.Counts()
	if counts[metrics.EventMemFreeze] == 0 {
		t.Fatal("no memtable_freeze events")
	}
	if counts[metrics.EventFlushStart] == 0 || counts[metrics.EventFlushStart] != counts[metrics.EventFlushDone] {
		t.Fatalf("flush events unbalanced: start=%d done=%d",
			counts[metrics.EventFlushStart], counts[metrics.EventFlushDone])
	}
	if counts[metrics.EventCompactionStart] == 0 || counts[metrics.EventCompactionStart] != counts[metrics.EventCompactionDone] {
		t.Fatalf("compaction events unbalanced: start=%d done=%d",
			counts[metrics.EventCompactionStart], counts[metrics.EventCompactionDone])
	}

	freeze := firstIndex(evs, metrics.EventMemFreeze)
	fStart := firstIndex(evs, metrics.EventFlushStart)
	fDone := firstIndex(evs, metrics.EventFlushDone)
	cStart := firstIndex(evs, metrics.EventCompactionStart)
	cDone := firstIndex(evs, metrics.EventCompactionDone)
	if !(freeze < fStart && fStart < fDone && fDone < cStart && cStart < cDone) {
		t.Fatalf("lifecycle out of order: freeze=%d flush_start=%d flush_done=%d compaction_start=%d compaction_done=%d",
			freeze, fStart, fDone, cStart, cDone)
	}

	// Payload sanity on the completed work.
	for _, e := range evs {
		switch e.Type {
		case metrics.EventFlushDone:
			if e.Bytes <= 0 || e.Entries <= 0 || e.Outputs != 1 {
				t.Fatalf("flush_done payload: %+v", e)
			}
		case metrics.EventCompactionDone:
			if e.Outputs <= 0 || e.Bytes <= 0 {
				t.Fatalf("compaction_done payload: %+v", e)
			}
		case metrics.EventWALRotate:
			if e.Detail == "" {
				t.Fatalf("wal_rotate without detail: %+v", e)
			}
		}
	}
}

// TestInlineModeEvents checks that a lone writer, which runs the
// pipeline's flush and compaction jobs, emits flush, compaction, open and
// close events, and that a JSONL sink attached behind the ring receives
// every event as one JSON line.
func TestInlineModeEvents(t *testing.T) {
	var buf bytes.Buffer
	jsonl := metrics.NewJSONLSink(&buf)
	log := metrics.NewEventLog(0)
	log.Attach(jsonl)
	o := smallOpts()
	o.Events = log
	db, err := Open(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled keys, so that compactions merge rather than move.
	for i := 0; i < 3000; i++ {
		mustPut(t, db, shuffledKey("key-%05d", i, 3000), fmt.Sprintf("value-%05d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	counts := log.Counts()
	if counts[metrics.EventFlushDone] == 0 {
		t.Fatal("deterministic mode emitted no flush_done")
	}
	if counts[metrics.EventCompactionDone] == 0 {
		t.Fatal("deterministic mode emitted no compaction_done")
	}
	if counts[metrics.EventOpen] != 1 || counts[metrics.EventClose] != 1 {
		t.Fatalf("open/close counts: %d/%d", counts[metrics.EventOpen], counts[metrics.EventClose])
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var total int64
	for _, c := range counts {
		total += c
	}
	if int64(len(lines)) != total {
		t.Fatalf("JSONL lines = %d, events = %d", len(lines), total)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"seq":`) {
			t.Fatalf("unexpected JSONL line %q", line)
		}
	}
}
