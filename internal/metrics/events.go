package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Structured event log (DESIGN.md §5.3). Engine lifecycle transitions —
// MemTable freezes, flushes, compactions, WAL rotations — are emitted as
// typed Events through a pluggable EventSink, so that a latency spike in
// the paper's box plots can be attributed to the flush or compaction that
// caused it. The default sink is a bounded in-memory ring (EventLog)
// served at /events; a JSONLSink can be attached for durable capture.

// EventType names one lifecycle transition.
type EventType string

// The event vocabulary.
const (
	EventOpen            EventType = "open"
	EventClose           EventType = "close"
	EventMemFreeze       EventType = "memtable_freeze"
	EventFlushStart      EventType = "flush_start"
	EventFlushDone       EventType = "flush_done"
	EventCompactionStart EventType = "compaction_start"
	EventCompactionDone  EventType = "compaction_done"
	EventCompactionError EventType = "compaction_error"
	EventWALRotate       EventType = "wal_rotate"
	// EventTrivialMove is a compaction that moved its input tables one
	// level down by a version edit alone: Level is the source level,
	// Inputs the file count, and no bytes were written.
	EventTrivialMove EventType = "trivial_move"
	// Model/advisor observability (DESIGN.md §5.7): emitted by the
	// workload profiler when the observed/predicted cost ratio leaves the
	// model's confidence band, and by the advisor monitor when the live
	// recommendation flips away from the configured index kind.
	EventModelDrift  EventType = "model_drift"
	EventAdvisorFlip EventType = "advisor_flip"
)

// Event is one structured lifecycle record. Seq and TS are assigned by
// the EventLog at emit time; Seq is strictly monotonic per log, so event
// ordering (freeze → flush_start → flush_done → compaction_start → …) is
// checkable even when wall clocks collide.
type Event struct {
	Seq        uint64    `json:"seq"`
	TS         time.Time `json:"ts"`
	Type       EventType `json:"type"`
	Table      string    `json:"table,omitempty"` // "primary", "index-<attr>"
	Level      int       `json:"level,omitempty"`
	Inputs     int       `json:"inputs,omitempty"`
	Outputs    int       `json:"outputs,omitempty"`
	Bytes      int64     `json:"bytes,omitempty"`
	Entries    int       `json:"entries,omitempty"`
	DurationUS int64     `json:"duration_us,omitempty"`
	Detail     string    `json:"detail,omitempty"`
}

// EventSink receives events. Implementations must be safe for concurrent
// use; Emit is called from engine goroutines holding engine locks, so it
// must not block on the emitting database.
type EventSink interface {
	Emit(Event)
}

// EventLog is the canonical sink: it stamps Seq and TS, keeps the most
// recent events in a bounded ring, counts events per type, and fans out to
// any attached secondary sinks.
type EventLog struct {
	seq atomic.Uint64

	mu     sync.Mutex
	ring   []Event             // guarded by mu
	pos    int                 // guarded by mu
	n      int                 // guarded by mu
	counts map[EventType]int64 // guarded by mu
	sinks  []EventSink         // guarded by mu
}

// DefaultEventRing is the ring capacity when 0 is requested.
const DefaultEventRing = 1024

// NewEventLog returns a log retaining the capacity most recent events
// (0 = DefaultEventRing).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventRing
	}
	return &EventLog{ring: make([]Event, capacity), counts: map[EventType]int64{}}
}

// Attach adds a secondary sink (e.g. a JSONLSink); every subsequent event
// is forwarded with Seq and TS already assigned.
func (l *EventLog) Attach(s EventSink) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	l.sinks = append(l.sinks, s)
	l.mu.Unlock()
}

// Emit stamps and records e. Nil-safe.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	e.Seq = l.seq.Add(1)
	if e.TS.IsZero() {
		e.TS = time.Now()
	}
	l.mu.Lock()
	l.ring[l.pos] = e
	l.pos = (l.pos + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.counts[e.Type]++
	sinks := l.sinks
	l.mu.Unlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.pos - l.n
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Counts returns the number of events emitted per type since creation
// (not bounded by the ring).
func (l *EventLog) Counts() map[EventType]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[EventType]int64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// Named returns a sink that stamps Table on every event before forwarding
// to this log — how one core database shares a log across its primary
// table and per-attribute index tables.
func (l *EventLog) Named(table string) EventSink {
	if l == nil {
		return nil
	}
	return &namedSink{table: table, log: l}
}

type namedSink struct {
	table string
	log   *EventLog
}

func (s *namedSink) Emit(e Event) {
	if e.Table == "" {
		e.Table = s.table
	}
	s.log.Emit(e)
}

// JSONLSink appends one JSON object per event to w. Writes are buffered;
// Close forces them out — lsmserver closes the sink on graceful shutdown.
// A write error is not returned by Emit (the engine cannot do anything
// useful with a log-write failure mid-flush): the buffered writer keeps
// the first one, the sink drops every later event, and Close returns it.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer // guarded by mu
	closer io.Closer     // immutable after NewJSONLSink
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// Emit writes e as one JSONL line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return
	}
	enc, err := json.Marshal(e)
	if err != nil {
		return
	}
	_, _ = s.bw.Write(append(enc, '\n')) // a failure sticks in bw; Close returns it
}

// Close flushes and closes the underlying writer (if closable). The sink
// drops subsequent events.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return nil
	}
	err := s.bw.Flush()
	s.bw = nil
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
