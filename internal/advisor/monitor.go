package advisor

import (
	"sync"

	"leveldbpp/internal/core"
	"leveldbpp/internal/explain"
	"leveldbpp/internal/metrics"
)

// minOpsForAdvice is the smallest profiled operation count the online
// advisor will act on; below it the workload mix is noise.
const minOpsForAdvice = 32

// FromWorkload converts a profiler snapshot into the advisor's Profile.
// SpaceConstrained is a deployment property, not an observable — it stays
// false here and can be overridden by the caller.
func FromWorkload(w explain.Workload) Profile {
	return Profile{
		WriteFraction:          w.WriteFraction,
		SecondaryQueryFraction: w.SecondaryQueryFraction,
		TimeCorrelated:         w.TimeCorrelated,
		TypicalTopK:            w.TypicalTopK,
	}
}

// CheckResult is one online-advisor evaluation: the configured index kind
// against the kind the paper's decision strategy recommends for the
// workload observed so far.
type CheckResult struct {
	Configured  string           `json:"configured"`
	Recommended string           `json:"recommended"`
	Match       bool             `json:"match"`
	Rationale   string           `json:"rationale"`
	Sufficient  bool             `json:"sufficient"` // enough profiled ops to advise
	Profile     Profile          `json:"profile"`
	Workload    explain.Workload `json:"workload"`

	rec core.IndexKind // the kind Recommended names
}

// Monitor periodically re-runs the index-selection strategy against the
// live workload profile and emits an advisor_flip event when the
// recommendation moves away from the configured kind (or back). Safe for
// concurrent use.
type Monitor struct {
	db *core.DB

	mu      sync.Mutex
	lastRec core.IndexKind // last recommendation that fired an event
	armed   bool           // true once lastRec is meaningful
}

// NewMonitor returns a monitor watching db's profiler.
func NewMonitor(db *core.DB) *Monitor {
	return &Monitor{db: db}
}

// Evaluate computes the current CheckResult without emitting events —
// the pure form used by /advisor and the Prometheus gauges, so metric
// scrapes cannot spam the event log.
func (m *Monitor) Evaluate() CheckResult {
	w := m.db.Profiler().Snapshot()
	p := FromWorkload(w)
	rec := Recommend(p)
	return CheckResult{
		Configured:  m.db.Kind().String(),
		Recommended: rec.Index.String(),
		Match:       rec.Index == m.db.Kind(),
		Rationale:   rec.Rationale,
		Sufficient:  w.TotalOps >= minOpsForAdvice,
		Profile:     p,
		Workload:    w,
		rec:         rec.Index,
	}
}

// Check evaluates the advisor and emits an advisor_flip event when the
// recommendation changes to a kind other than the configured one (one
// event per distinct recommendation — a stable mismatch does not repeat).
func (m *Monitor) Check() CheckResult {
	res := m.Evaluate()
	if !res.Sufficient {
		return res
	}
	m.mu.Lock()
	fire := !res.Match && (!m.armed || m.lastRec != res.rec)
	if fire || res.Match {
		m.lastRec, m.armed = res.rec, true
	}
	m.mu.Unlock()
	if fire {
		m.db.EventLog().Emit(metrics.Event{
			Type: metrics.EventAdvisorFlip,
			Detail: "configured=" + res.Configured + " recommended=" + res.Recommended +
				": " + res.Rationale,
		})
	}
	return res
}
