package explain

import (
	"fmt"
	"sync"
	"sync/atomic"

	"leveldbpp/internal/metrics"
)

// Drift detection thresholds: with at least driftMinSamples ratios in an
// op's rolling window, a mean outside [driftLow, driftHigh] fires one
// model_drift event; the flag re-arms only once the mean returns to the
// tighter [clearLow, clearHigh] band (hysteresis, so a ratio oscillating
// on the boundary cannot spam the event log).
const (
	driftMinSamples = 16
	driftLow        = 0.4
	driftHigh       = 2.5
	clearLow        = 0.5
	clearHigh       = 2.0

	ratioWindowSize = 64
	corrMinSamples  = 32
	corrThreshold   = 0.9
)

// WorkloadProfiler aggregates the live operation stream into a rolling
// workload snapshot: operation mix (read from the DB's OpStats, which
// counts every operation once), top-K request distribution, matched
// result-set sizes, per-attribute time correlation of ingested values, and
// per-op observed/predicted cost ratios (the model-drift tracker). All
// methods are safe for concurrent use; the hot recording paths are a few
// atomic adds or one short mutex hold.
type WorkloadProfiler struct {
	ops    *metrics.OpStats  // the operation counts
	events *metrics.EventLog // drift events sink; may be nil

	unbounded atomic.Int64 // secondary queries with no K bound

	topK    *metrics.Histogram // requested K of bounded secondary queries
	matched atomic.Int64       // result-set sizes of secondary queries, summed

	mu      sync.Mutex
	attrs   map[string]*attrCorr        // guarded by mu
	ratios  [metrics.NumOps]ratioWindow // guarded by mu
	drifted [metrics.NumOps]bool        // guarded by mu
}

// NewWorkloadProfiler returns a profiler whose op mix is ops's counts,
// emitting drift events to events (which may be nil for a silent
// profiler).
func NewWorkloadProfiler(ops *metrics.OpStats, events *metrics.EventLog) *WorkloadProfiler {
	return &WorkloadProfiler{
		ops:    ops,
		events: events,
		topK:   metrics.NewHistogram(0),
		attrs:  map[string]*attrCorr{},
	}
}

// RecordQuery records one secondary-index query's requested K
// (0 = unbounded) and the number of results it matched; the query itself
// is counted by OpStats. Nil-safe.
//
//lsm:hotpath
func (p *WorkloadProfiler) RecordQuery(k, matched int) {
	if p == nil {
		return
	}
	if k > 0 {
		p.topK.Observe(float64(k))
	} else {
		p.unbounded.Add(1)
	}
	p.matched.Add(int64(matched))
}

// RecordAttrValue feeds one ingested secondary-attribute value into the
// time-correlation estimator. Callers sample (every Nth PUT) — the
// estimator needs pair counts, not every write. Nil-safe.
func (p *WorkloadProfiler) RecordAttrValue(attr, value string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	c := p.attrs[attr]
	if c == nil {
		c = &attrCorr{}
		p.attrs[attr] = c
	}
	c.observe(value)
	p.mu.Unlock()
}

// TimeCorrelated reports whether attr's sampled ingest order has been
// observed (with enough samples) to be approximately non-decreasing — the
// predicate selecting the Embedded RANGELOOKUP bound. Nil-safe.
func (p *WorkloadProfiler) TimeCorrelated(attr string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.attrs[attr]
	if c == nil || c.n < corrMinSamples {
		return false
	}
	return float64(c.concordant)/float64(c.n) >= corrThreshold
}

// RecordRatio feeds one observed/predicted cost ratio for op into the
// drift tracker, firing a model_drift event when the rolling mean leaves
// the model's confidence band. Nil-safe.
func (p *WorkloadProfiler) RecordRatio(op metrics.Op, ratio float64) {
	if p == nil || ratio <= 0 {
		return
	}
	p.mu.Lock()
	w := &p.ratios[op]
	w.add(ratio)
	var fire bool
	var mean float64
	if w.count >= driftMinSamples {
		mean = w.mean()
		if !p.drifted[op] && (mean < driftLow || mean > driftHigh) {
			p.drifted[op] = true
			fire = true
		} else if p.drifted[op] && mean >= clearLow && mean <= clearHigh {
			p.drifted[op] = false
		}
	}
	p.mu.Unlock()
	if fire {
		p.events.Emit(metrics.Event{
			Type:   metrics.EventModelDrift,
			Detail: fmt.Sprintf("op=%s mean_ratio=%.2f window=%d", op, mean, ratioWindowSize),
		})
	}
}

// RatioStats summarizes one op's rolling observed/predicted window.
type RatioStats struct {
	Count   int     `json:"count"`
	Mean    float64 `json:"mean"`
	Drifted bool    `json:"drifted"`
}

// Workload is a point-in-time snapshot of the profiled workload, the
// neutral form advisor.FromWorkload converts into an advisor.Profile.
type Workload struct {
	TotalOps               int64                 `json:"total_ops"`
	Ops                    map[string]int64      `json:"ops"`
	WriteFraction          float64               `json:"write_fraction"`
	SecondaryQueryFraction float64               `json:"secondary_query_fraction"`
	TypicalTopK            int                   `json:"typical_top_k"`
	UnboundedFraction      float64               `json:"unbounded_fraction"`
	MeanMatched            float64               `json:"mean_matched"`
	TimeCorrelation        map[string]float64    `json:"time_correlation,omitempty"`
	TimeCorrelated         bool                  `json:"time_correlated"`
	Ratios                 map[string]RatioStats `json:"model_ratios,omitempty"`
}

// Snapshot returns the current workload aggregate. Nil-safe (zero value).
func (p *WorkloadProfiler) Snapshot() Workload {
	var w Workload
	if p == nil {
		return w
	}
	w.Ops = map[string]int64{}
	var writes, secondary int64
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		n := p.ops.Hist(op).Count()
		if n == 0 {
			continue
		}
		w.Ops[op.String()] = n
		w.TotalOps += n
		switch op {
		case metrics.OpPut, metrics.OpDelete, metrics.OpBatch:
			writes += n
		case metrics.OpLookup, metrics.OpRangeLookup:
			secondary += n
		}
	}
	if w.TotalOps > 0 {
		w.WriteFraction = float64(writes) / float64(w.TotalOps)
		w.SecondaryQueryFraction = float64(secondary) / float64(w.TotalOps)
	}
	bounded := p.topK.Count()
	unbounded := p.unbounded.Load()
	if queries := bounded + unbounded; queries > 0 {
		w.UnboundedFraction = float64(unbounded) / float64(queries)
		w.MeanMatched = float64(p.matched.Load()) / float64(queries)
	}
	// TypicalTopK is the median requested K — unless most secondary
	// queries are unbounded, in which case the workload has no meaningful
	// top-K and the advisor's "small-K favours Lazy" rule must not apply.
	if bounded > unbounded && bounded > 0 {
		w.TypicalTopK = int(p.topK.Quantile(0.5))
	}

	p.mu.Lock()
	if len(p.attrs) > 0 {
		w.TimeCorrelation = map[string]float64{}
		for attr, c := range p.attrs {
			if c.n < corrMinSamples {
				continue
			}
			corr := float64(c.concordant) / float64(c.n)
			w.TimeCorrelation[attr] = corr
			if corr >= corrThreshold {
				w.TimeCorrelated = true
			}
		}
	}
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		win := &p.ratios[op]
		if win.count == 0 {
			continue
		}
		if w.Ratios == nil {
			w.Ratios = map[string]RatioStats{}
		}
		w.Ratios[op.String()] = RatioStats{Count: win.count, Mean: win.mean(), Drifted: p.drifted[op]}
	}
	p.mu.Unlock()
	return w
}

// attrCorr estimates whether an attribute's ingested values arrive in
// (approximately) non-decreasing order — the paper's "time-correlated
// attribute" predicate that makes Embedded zone maps effective. It counts
// the fraction of consecutive sampled pairs that are concordant
// (value >= previous value).
type attrCorr struct {
	n          int64
	concordant int64
	last       string
	hasLast    bool
}

func (c *attrCorr) observe(value string) {
	if c.hasLast {
		c.n++
		if value >= c.last {
			c.concordant++
		}
	}
	c.last, c.hasLast = value, true
}

// ratioWindow is a fixed-size rolling window with an O(1) running sum.
type ratioWindow struct {
	buf   [ratioWindowSize]float64
	count int // observations retained (≤ ratioWindowSize)
	pos   int
	sum   float64
}

func (w *ratioWindow) add(v float64) {
	if w.count == len(w.buf) {
		w.sum -= w.buf[w.pos]
	} else {
		w.count++
	}
	w.buf[w.pos] = v
	w.sum += v
	w.pos = (w.pos + 1) % len(w.buf)
}

func (w *ratioWindow) mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}
