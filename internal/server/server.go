// Package server exposes a LevelDB++ database over HTTP/JSON — the thin
// network front a single-node NoSQL store needs to be usable as a
// service. The API mirrors the paper's operation set (Table 1) plus this
// repository's extensions:
//
//	PUT    /doc/{key}                         store document (JSON body)
//	GET    /doc/{key}                         fetch document
//	DELETE /doc/{key}                         delete document
//	GET    /lookup?attr=A&value=a&k=K         LOOKUP(A, a, K)
//	GET    /rangelookup?attr=A&lo=a&hi=b&k=K  RANGELOOKUP(A, a, b, K)
//	GET    /explain/lookup?attr=A&value=a&k=K EXPLAIN LOOKUP (report + results)
//	GET    /explain/rangelookup?...           EXPLAIN RANGELOOKUP
//	GET    /explain/get?key=k                 EXPLAIN GET
//	GET    /advisor                           live workload profile + index advice
//	GET    /scan?lo=a&hi=b&limit=N            primary-key range scan
//	POST   /batch                             atomic batch (JSON body)
//	GET    /stats                             I/O counters, sizes, WAMF
//	POST   /flush                             force MemTables to disk
//	POST   /compact                           full manual compaction
//	GET    /check                             full consistency audit
//	GET    /debug                             level-shape dump
//	GET    /healthz                           liveness (503 when closed or a flush failed)
//	GET    /metrics                           Prometheus text format
//	GET    /events                            lifecycle event log (JSON)
//	GET    /trace/slow?op=O&limit=N           recent slow traces + breakdown
//	GET    /debug/pprof/*                     Go profiling (opt-in)
//
// All responses are JSON. Errors use standard status codes with a
// {"error": "..."} body.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"leveldbpp/internal/advisor"
	"leveldbpp/internal/core"
	"leveldbpp/internal/explain"
)

// Config gates the optional observability surfaces of a Server.
type Config struct {
	// Metrics exposes GET /metrics in Prometheus text format.
	Metrics bool
	// Pprof exposes the Go profiler under /debug/pprof/. Off by default:
	// profiles reveal internals and cost CPU, so lsmserver requires an
	// explicit -pprof flag.
	Pprof bool
}

// Server is an http.Handler over one database.
type Server struct {
	db      *core.DB
	mux     *http.ServeMux
	monitor *advisor.Monitor

	// encodeErrors counts responses whose JSON encoding failed mid-write
	// (the status line is already gone by then, so the failure is logged
	// and surfaced through /stats and /metrics instead of the response).
	encodeErrors atomic.Int64
}

// NewWith wraps db in an HTTP handler with the given observability
// configuration.
func NewWith(db *core.DB, cfg Config) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), monitor: advisor.NewMonitor(db)}
	s.mux.HandleFunc("/doc/", s.handleDoc)
	s.mux.HandleFunc("/lookup", s.handleQuery(false, false))
	s.mux.HandleFunc("/rangelookup", s.handleQuery(true, false))
	s.mux.HandleFunc("/explain/lookup", s.handleQuery(false, true))
	s.mux.HandleFunc("/explain/rangelookup", s.handleQuery(true, true))
	s.mux.HandleFunc("/explain/get", s.handleExplainGet)
	s.mux.HandleFunc("/advisor", s.handleAdvisor)
	s.mux.HandleFunc("/scan", s.handleScan)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/flush", s.handleFlush)
	s.mux.HandleFunc("/compact", s.handleCompact)
	s.mux.HandleFunc("/check", s.handleCheck)
	s.mux.HandleFunc("/debug", s.handleDebug)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/trace/slow", s.handleTraceSlow)
	if cfg.Metrics {
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// AdvisorMonitor returns the server's online index advisor — lsmserver's
// -advisor-check loop drives Check() on it so flips land in the event log.
func (s *Server) AdvisorMonitor() *advisor.Monitor { return s.monitor }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already written; all that is left is to
		// count and log the failure (satellite fix: this used to be
		// silently discarded).
		s.encodeErrors.Add(1)
		log.Printf("server: encode %T response: %v", v, err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.db.Health(); err != nil {
		s.writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unhealthy", "error": err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK,
		map[string]interface{}{"status": "ok", "seq": s.db.LastSeq()})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	l := s.db.EventLog()
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"counts": l.Counts(),
		"events": l.Events(),
	})
}

func (s *Server) handleTraceSlow(w http.ResponseWriter, r *http.Request) {
	t := s.db.Tracer()
	q := r.URL.Query()
	slow := t.Slow()
	if op := q.Get("op"); op != "" {
		filtered := slow[:0]
		for _, rec := range slow {
			if rec.Op == op {
				filtered = append(filtered, rec)
			}
		}
		slow = filtered
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		if n < len(slow) {
			slow = slow[len(slow)-n:] // most recent last; keep the newest n
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"sample_rate": t.Rate(),
		"slow":        slow,
		"breakdown":   t.Breakdown(),
	})
}

// maxBodyBytes bounds request bodies (1 MiB documents, 16 MiB batches).
const (
	maxDocBytes   = 1 << 20
	maxBatchBytes = 16 << 20
)

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/doc/")
	if key == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("missing document key"))
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes+1))
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		if len(body) > maxDocBytes {
			s.writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("document exceeds %d bytes", maxDocBytes))
			return
		}
		if err := s.db.Put(key, body); err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"key": key})
	case http.MethodGet:
		value, ok, err := s.db.Get(key)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if !ok {
			s.writeErr(w, http.StatusNotFound, fmt.Errorf("key %q not found", key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(value)
	case http.MethodDelete:
		if err := s.db.Delete(key); err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"deleted": key})
	default:
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func parseK(q url.Values) (int, error) {
	ks := q.Get("k")
	if ks == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return 0, fmt.Errorf("bad k %q: %w", ks, err)
	}
	return k, nil
}

// entryJSON is the wire form of one query result.
type entryJSON struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
	Seq   uint64          `json:"seq"`
}

func toWire(entries []core.Entry) []entryJSON {
	out := make([]entryJSON, len(entries))
	for i, e := range entries {
		v := json.RawMessage(e.Value)
		if !json.Valid(v) {
			// Non-JSON payloads are re-encoded as JSON strings.
			b, _ := json.Marshal(string(e.Value))
			v = b
		}
		out[i] = entryJSON{Key: e.Key, Value: v, Seq: e.Seq}
	}
	return out
}

// handleQuery returns the handler of LOOKUP (attr, value, k) or, when
// ranged, RANGELOOKUP (attr, lo, hi, k). Explained, it answers with the
// EXPLAIN report beside the results.
func (s *Server) handleQuery(ranged, explained bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		attr := q.Get("attr")
		if attr == "" {
			s.writeErr(w, http.StatusBadRequest, errors.New("attr parameter required"))
			return
		}
		k, err := parseK(q)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		var entries []core.Entry
		var rep *explain.Report
		switch {
		case ranged && explained:
			entries, rep, err = s.db.ExplainRangeLookup(attr, q.Get("lo"), q.Get("hi"), k)
		case ranged:
			entries, err = s.db.RangeLookup(attr, q.Get("lo"), q.Get("hi"), k)
		case explained:
			entries, rep, err = s.db.ExplainLookup(attr, q.Get("value"), k)
		default:
			entries, err = s.db.Lookup(attr, q.Get("value"), k)
		}
		if errors.Is(err, core.ErrUnknownAttr) {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if explained {
			s.writeJSON(w, http.StatusOK, map[string]interface{}{
				"report": rep, "results": toWire(entries)})
			return
		}
		s.writeJSON(w, http.StatusOK, toWire(entries))
	}
}

func (s *Server) handleExplainGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("key parameter required"))
		return
	}
	_, found, rep, err := s.db.ExplainGet(key)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"report": rep, "found": found})
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	// Evaluate, not Check: a dashboard polling /advisor must not emit
	// advisor_flip events — only the -advisor-check loop does.
	s.writeJSON(w, http.StatusOK, s.monitor.Evaluate())
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 1000
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		limit = n
	}
	var out []entryJSON
	err := s.db.Scan(q.Get("lo"), q.Get("hi"), func(key string, value []byte) bool {
		out = append(out, toWire([]core.Entry{{Key: key, Value: value}})[0])
		return len(out) < limit
	})
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, out)
}

// batchRequest is the wire form of an atomic batch.
type batchRequest struct {
	Ops []struct {
		Op    string          `json:"op"` // "put" | "delete"
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value,omitempty"`
	} `json:"ops"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxBatchBytes {
		s.writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("batch exceeds %d bytes", maxBatchBytes))
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("decode batch: %w", err))
		return
	}
	var b core.Batch
	for i, op := range req.Ops {
		switch op.Op {
		case "put":
			if op.Key == "" {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: missing key", i))
				return
			}
			b.Put(op.Key, op.Value)
		case "delete":
			if op.Key == "" {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: missing key", i))
				return
			}
			b.Delete(op.Key)
		default:
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q", i, op.Op))
			return
		}
	}
	if err := s.db.Apply(&b); err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"applied": b.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	prim, idx, err := s.db.DiskUsage()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st := s.db.Stats()
	pWAMF, idxWAMF := s.db.WriteAmplification()
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"index_kind":           s.db.Kind().String(),
		"disk_primary_bytes":   prim,
		"disk_index_bytes":     idx,
		"filter_memory_bytes":  s.db.FilterMemoryUsage(),
		"primary_io":           st.Primary,
		"index_io":             st.Index,
		"primary_wamf":         pWAMF,
		"index_wamf_per_attr":  idxWAMF,
		"last_sequence_number": s.db.LastSeq(),
		"encode_errors":        s.encodeErrors.Load(),
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if err := s.db.Flush(); err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	q := r.URL.Query()
	if err := s.db.CompactRange(q.Get("lo"), q.Get("hi")); err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"compacted": true})
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.db.DebugString())
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	reports, err := s.db.Verify()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	ok := true
	for _, rep := range reports {
		if !rep.OK() {
			ok = false
		}
	}
	status := http.StatusOK
	if !ok {
		status = http.StatusInternalServerError
	}
	s.writeJSON(w, status, map[string]interface{}{"ok": ok, "reports": reports})
}
