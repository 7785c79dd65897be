// Package costmodel implements the paper's analytic worst-case I/O and
// write-amplification formulas (Tables 3 and 5, Sections 3.1 and 4.3), so
// experiments can print paper-predicted costs next to measured ones.
package costmodel

import (
	"fmt"

	"leveldbpp/internal/bloom"
)

// Params are the model inputs (paper Table 6 notation).
type Params struct {
	Levels        int     // L: number of levels in the store
	LevelRatio    int     // N: size ratio between consecutive levels (10)
	BlocksL0      int     // b: number of blocks in level 0
	BitsPerKey    int     // sizes f_p, the bloom false-positive rate
	AvgPostingLen float64 // PL_S: average posting-list length
	NumAttrs      int     // l: number of indexed secondary attributes
	RangeBlocks   int     // M: index-table blocks holding keys in range
	// LevelBlocks, when set, replaces the geometric b·N^i series with the
	// actual per-level block counts observed in a live tree (EXPLAIN's
	// "live Params" derivation, DESIGN.md §5.7). LevelBlocks[0] is L0.
	LevelBlocks []int `json:",omitempty"`
}

func (p Params) withDefaults() Params {
	if p.LevelRatio <= 0 {
		p.LevelRatio = 10
	}
	if p.NumAttrs <= 0 {
		p.NumAttrs = 1
	}
	if p.BitsPerKey <= 0 {
		p.BitsPerKey = 10
	}
	return p
}

// FalsePositiveRate returns f_p for the configured bloom size.
func (p Params) FalsePositiveRate() float64 {
	return bloom.FalsePositiveRate(p.withDefaults().BitsPerKey)
}

// EmbeddedLookupIO is Table 3's LOOKUP bound: (K+ε) matched-block reads
// plus false-positive reads f_p·b·Σ N^i over the L scanned levels.
// epsilon models the "scan to the end of the level" overshoot.
func EmbeddedLookupIO(p Params, k, epsilon int) float64 {
	p = p.withDefaults()
	fp := p.FalsePositiveRate()
	fpCost := 0.0
	if len(p.LevelBlocks) > 0 {
		for _, b := range p.LevelBlocks {
			fpCost += fp * float64(b)
		}
		return float64(k+epsilon) + fpCost
	}
	levelBlocks := float64(p.BlocksL0)
	for i := 0; i < p.Levels; i++ {
		fpCost += fp * levelBlocks
		levelBlocks *= float64(p.LevelRatio)
	}
	return float64(k+epsilon) + fpCost
}

// EmbeddedRangeLookupIO is Table 3's RANGELOOKUP bound. For a
// time-correlated attribute zone maps prune to K+ε; otherwise the worst
// case equals a full scan (totalBlocks).
func EmbeddedRangeLookupIO(p Params, k, epsilon int, timeCorrelated bool, totalBlocks int) float64 {
	if timeCorrelated {
		return float64(k + epsilon)
	}
	return float64(totalBlocks)
}

// WAMFEager is §4.3's write-amplification for the Eager index:
// PL_S · 2·(N+1) · (L−1). With N=10 the paper writes it as PL_S·22·(L−1).
func WAMFEager(p Params) float64 {
	p = p.withDefaults()
	return p.AvgPostingLen * 2 * float64(p.LevelRatio+1) * float64(p.Levels-1)
}

// WAMFLazy is the Lazy/Composite write amplification 2·(N+1)·(L−1) —
// identical to a plain LevelDB table, since every write is a simple
// key-value append.
func WAMFLazy(p Params) float64 {
	p = p.withDefaults()
	return 2 * float64(p.LevelRatio+1) * float64(p.Levels-1)
}

// WAMFComposite equals WAMFLazy (paper §4.3).
func WAMFComposite(p Params) float64 { return WAMFLazy(p) }

// StandAloneCost is one row of Table 5: worst-case disk accesses split by
// table and direction.
type StandAloneCost struct {
	Op             string
	Index          string
	DataReads      float64
	DataWrites     float64
	IndexReads     float64
	IndexWrites    float64
	WAMF           float64
	CPUSignificant bool // the paper's ** marker
}

// Table5 materializes the paper's Table 5 for the given parameters and a
// query matching kMatched entries.
func Table5(p Params, kMatched int) []StandAloneCost {
	p = p.withDefaults()
	l := float64(p.NumAttrs)
	k := float64(kMatched)
	return []StandAloneCost{
		{Op: "GET", Index: "All"},
		{Op: "PUT/DEL", Index: "Eager", DataWrites: 1, IndexReads: l, IndexWrites: l, WAMF: WAMFEager(p)},
		{Op: "PUT/DEL", Index: "Lazy", DataWrites: 1, IndexWrites: l, WAMF: WAMFLazy(p), CPUSignificant: true},
		{Op: "PUT/DEL", Index: "Composite", DataWrites: 1, IndexWrites: l, WAMF: WAMFComposite(p)},
		{Op: "LOOKUP", Index: "Eager", DataReads: k, IndexReads: 1},
		{Op: "LOOKUP", Index: "Lazy", DataReads: k, IndexReads: float64(p.Levels), CPUSignificant: true},
		{Op: "LOOKUP", Index: "Composite", DataReads: k, IndexReads: float64(p.Levels)},
		{Op: "RANGELOOKUP", Index: "All", DataReads: k, IndexReads: float64(p.RangeBlocks)},
	}
}

// Table3 is the Embedded index cost table (paper Table 3).
type EmbeddedCost struct {
	Op      string
	ReadIO  float64
	WriteIO float64
	Note    string
}

// Table3 materializes the paper's Table 3.
func Table3(p Params, k, epsilon, totalBlocks int, timeCorrelated bool) []EmbeddedCost {
	return []EmbeddedCost{
		{Op: "GET", ReadIO: 1},
		{Op: "PUT/DEL", WriteIO: 1},
		{Op: "LOOKUP", ReadIO: EmbeddedLookupIO(p, k, epsilon), Note: "CPU cost of filter checks not negligible"},
		{Op: "RANGELOOKUP", ReadIO: EmbeddedRangeLookupIO(p, k, epsilon, timeCorrelated, totalBlocks),
			Note: rangeNote(timeCorrelated)},
	}
}

func rangeNote(timeCorrelated bool) string {
	if timeCorrelated {
		return "time-correlated attribute: zone maps prune to K+ε"
	}
	return "non-time-correlated: worst case equals full scan"
}

// EagerLookupIO and friends are the Table 5 LOOKUP I/O totals
// (K' + 1 / K' + L) used in EXPERIMENTS.md comparisons. kMatched is the
// validation reads: K' itself is the bound with no two results sharing a
// primary block, and EXPLAIN passes the distinct blocks they map to.
func EagerLookupIO(p Params, kMatched int) float64 { return float64(kMatched) + 1 }

// LazyLookupIO is K' + L.
func LazyLookupIO(p Params, kMatched int) float64 {
	return float64(kMatched) + float64(p.withDefaults().Levels)
}

// CompositeLookupIO is K' + L.
func CompositeLookupIO(p Params, kMatched int) float64 { return LazyLookupIO(p, kMatched) }

// String renders a StandAloneCost row.
func (c StandAloneCost) String() string {
	star := ""
	if c.CPUSignificant {
		star = " **"
	}
	return fmt.Sprintf("%-12s %-10s data(r=%g w=%g) index(r=%g w=%g) WAMF=%g%s",
		c.Op, c.Index, c.DataReads, c.DataWrites, c.IndexReads, c.IndexWrites, c.WAMF, star)
}
