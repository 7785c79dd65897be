// Package advisor implements the paper's secondary-index selection
// strategy (Figure 2 and the "Summary of Results" of §1): given a
// workload profile, it recommends one of the five indexing techniques
// with the paper's rationale.
package advisor

import (
	"fmt"

	"leveldbpp/internal/core"
)

// Profile characterizes an application workload for index selection.
type Profile struct {
	// WriteFraction is the share of PUT/DEL/UPDATE among all operations.
	WriteFraction float64
	// SecondaryQueryFraction is the share of LOOKUP/RANGELOOKUP among
	// all operations (the paper's "< 5%" branch compares against GETs
	// and writes).
	SecondaryQueryFraction float64
	// TimeCorrelated reports whether the indexed attribute correlates
	// with insertion time (zone maps become highly effective).
	TimeCorrelated bool
	// SpaceConstrained marks deployments where index storage/memory is a
	// concern (the paper's mobile/sensor examples).
	SpaceConstrained bool
	// TypicalTopK is the K most queries use; 0 means queries return all
	// matches (analytics-style).
	TypicalTopK int
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Index     core.IndexKind
	Rationale string
}

// Recommend applies Figure 2's decision strategy.
func Recommend(p Profile) Recommendation {
	// Embedded branch: time-correlated attribute, space concerns, or a
	// write-heavy workload with a small secondary-query share.
	switch {
	case p.TimeCorrelated:
		return Recommendation{
			Index: core.IndexEmbedded,
			Rationale: "attribute is time-correlated: file- and block-level zone maps prune " +
				"nearly all I/O, so the Embedded index matches stand-alone query speed at " +
				"zero index maintenance cost (paper §5.2.1, Figure 11)",
		}
	case p.SpaceConstrained:
		return Recommendation{
			Index: core.IndexEmbedded,
			Rationale: "space-constrained deployment: the Embedded index adds only " +
				"memory-resident filters to the primary table — no separate index table " +
				"(paper Figure 8a)",
		}
	case p.SecondaryQueryFraction < 0.05 && p.WriteFraction > 0.50:
		return Recommendation{
			Index: core.IndexEmbedded,
			Rationale: "write-heavy (>50% writes) with rare secondary queries (<5%): the " +
				"Embedded index's zero write overhead dominates its slower lookups " +
				"(paper Figure 2 guideline)",
		}
	}
	// Stand-alone branch: Eager is ruled out ("exponential write costs
	// ... not suitable for any workloads", §5.2.3); choose between Lazy
	// and Composite on top-K.
	if p.TypicalTopK > 0 {
		return Recommendation{
			Index: core.IndexLazy,
			Rationale: fmt.Sprintf("top-%d queries: Lazy stops at the first level boundary "+
				"holding K results, reading fewer index blocks than Composite's prefix scans "+
				"(paper §4.3, Figure 10a)", p.TypicalTopK),
		}
	}
	return Recommendation{
		Index: core.IndexComposite,
		Rationale: "unbounded (return-all) queries: Composite avoids Lazy's posting-list " +
			"parse/merge CPU cost at identical K+L I/O (paper §4.3; analytics guideline in §1)",
	}
}
