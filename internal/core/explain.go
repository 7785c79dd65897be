package core

import (
	"time"

	"leveldbpp/internal/costmodel"
	"leveldbpp/internal/explain"
	"leveldbpp/internal/metrics"
)

// EXPLAIN (DESIGN.md §5.7): a GET, LOOKUP or RANGELOOKUP runs one path
// whether it is explained or not. Explained, it runs under a detached trace
// (always recorded, independent of the sampling rate), and its report
// pairs the trace's exact I/O attribution with the cost model's Table 3/5
// prediction evaluated on live Params derived from the current tree
// geometry. The observed/predicted ratio of every traced read, explained
// or sampled, feeds the profiler's model-drift tracker.

// epsilonBlocks is the model's ε — the "scan to the end of the level"
// overshoot added to K in the Embedded bounds (paper §3.1).
const epsilonBlocks = 2

// startRead begins a read's trace: a detached one when explained, else the
// tracer's sample, nil when op is not sampled.
func (db *DB) startRead(op metrics.Op, explained bool) *metrics.Trace {
	if explained {
		return metrics.StartDetached(op)
	}
	return db.tracer.Start(op)
}

// finishRead ends a read of op begun at t0 under tr (results entries; out
// is a LOOKUP's or RANGELOOKUP's answer): it finishes tr and observes the
// read's latency, then, for a traced read that succeeded, evaluates the
// cost model once and feeds the observed/predicted ratio to the profiler.
// It returns that report, always when explained. A sampled read that
// accessed no block skips the prediction: its ratio is 0, which the
// profiler drops.
func (db *DB) finishRead(tr *metrics.Trace, t0 time.Time, op metrics.Op, attr, lo, hi string, k, results int, out []Entry, explained bool, err error) *explain.Report {
	var rec metrics.TraceRecord
	if explained {
		rec = tr.Record()
	}
	io := tr.Counters() // read before Finish returns tr to the pool
	tr.Finish()
	db.ops.Observe(op, time.Since(t0))
	if err != nil || !explained && io.BlockAccesses() == 0 {
		return nil
	}
	p, predicted, formula := db.predict(op, attr, lo, hi, out, io)
	rep := &explain.Report{
		Op:          op.String(),
		Index:       db.opts.Index.String(),
		Plan:        db.planName(op),
		Detail:      rec.Detail,
		K:           k,
		Results:     results,
		TotalUS:     rec.TotalUS,
		Phases:      rec.Phases,
		IO:          io,
		PredictedIO: predicted,
		Formula:     formula,
		Params:      p,
	}
	rep.Fill()
	db.profiler.RecordRatio(op, rep.Ratio)
	return rep
}

// planName is the access-plan label EXPLAIN reports for op under the
// configured index kind.
func (db *DB) planName(op metrics.Op) string {
	switch op {
	case metrics.OpGet:
		return "point_get"
	case metrics.OpLookup:
		switch db.opts.Index {
		case IndexEmbedded:
			return "bloom_probe"
		case IndexEager:
			return "posting_fetch"
		case IndexLazy:
			return "posting_merge"
		case IndexComposite:
			return "prefix_scan"
		default:
			return "full_scan"
		}
	case metrics.OpRangeLookup:
		switch db.opts.Index {
		case IndexEmbedded:
			return "zone_map_prune"
		case IndexEager:
			return "posting_scan"
		case IndexLazy:
			return "posting_merge_scan"
		case IndexComposite:
			return "prefix_scan"
		default:
			return "full_scan"
		}
	default:
		return op.String()
	}
}

// predict evaluates the cost model for op with live Params: per-level
// block counts from the table that op actually reads, L from its current
// stratum count, M from index metadata overlapping the queried range, and
// K' = the results out the operation matched. Table 5 charges one primary
// block per K' validation, the bound when no two results share a block;
// validation reads each primary block once per chunk, so the stand-alone
// bounds charge B(K'), the distinct primary blocks the result keys map to
// (validationBlocks). The Embedded bounds take K from the trace counters
// instead (see below). The returned formula string names the Table 3/5
// bound used.
func (db *DB) predict(op metrics.Op, attr, lo, hi string, out []Entry, io metrics.Counters) (costmodel.Params, float64, string) {
	p := db.modelParams(attr)
	totalBlocks := 0
	for _, b := range p.LevelBlocks {
		totalBlocks += b
	}
	switch op {
	case metrics.OpGet:
		return p, 1, "1 (Table 3/5 GET)"
	case metrics.OpLookup:
		switch db.opts.Index {
		case IndexEmbedded:
			// Table 3's K counts the blocks that hold the value — under a
			// Zipfian attribute that is far above the top-K result cap. The
			// engine keeps no per-value block statistics, so K comes from
			// the trace: candidate blocks the seq bound left eligible,
			// minus secondary-bloom false positives. It may be below the
			// result count, as newest-first reads find several results in
			// one block. The model's own contribution — ε and the f_p·Σb_i
			// false-positive term — is what the ratio then validates; both
			// apply only to the share of blocks the bound left eligible.
			kBlocks := int(io.CandidateBlocks - io.SeqPrunes - io.BloomFalsePositives)
			return p, float64(kBlocks) + eligibleShare(io)*costmodel.EmbeddedLookupIO(p, 0, epsilonBlocks),
				"K + q*(eps + f_p*sum(b_i)) (Table 3 LOOKUP, q = seq-eligible share)"
		case IndexEager:
			return p, costmodel.EagerLookupIO(p, db.validationBlocks(out)), "B(K') + 1 (Table 5 LOOKUP)"
		case IndexLazy:
			return p, costmodel.LazyLookupIO(p, db.validationBlocks(out)), "B(K') + L (Table 5 LOOKUP)"
		case IndexComposite:
			return p, costmodel.CompositeLookupIO(p, db.validationBlocks(out)), "B(K') + L (Table 5 LOOKUP)"
		default:
			return p, float64(totalBlocks), "B (full scan)"
		}
	case metrics.OpRangeLookup:
		switch db.opts.Index {
		case IndexEmbedded:
			p.RangeBlocks = db.primary.OverlappingBlockCount(nil, nil)
			corr := db.profiler.TimeCorrelated(attr)
			// As for LOOKUP, K is the matched-block count from the trace
			// (candidates surviving the zone-map prune and the seq bound),
			// not the result cap, and ε and B shrink to the eligible share.
			kBlocks := int(io.CandidateBlocks - io.SeqPrunes)
			bound := eligibleShare(io) * costmodel.EmbeddedRangeLookupIO(p, 0, epsilonBlocks, corr, totalBlocks)
			if corr {
				bound += float64(kBlocks)
			}
			return p, bound, "K + q*eps if time-correlated else q*B (Table 3 RANGELOOKUP, q = seq-eligible share)"
		case IndexEager, IndexLazy:
			p.RangeBlocks = db.indexes[attr].OverlappingBlockCount([]byte(lo), upperBoundExclusive(hi))
			return p, float64(db.validationBlocks(out) + p.RangeBlocks), "B(K') + M (Table 5 RANGELOOKUP)"
		case IndexComposite:
			p.RangeBlocks = db.indexes[attr].OverlappingBlockCount(
				compositeKey(lo, ""), append([]byte(hi), compositeSep+1))
			return p, float64(db.validationBlocks(out) + p.RangeBlocks), "B(K') + M (Table 5 RANGELOOKUP)"
		default:
			return p, float64(totalBlocks), "B (full scan)"
		}
	default:
		return p, 0, ""
	}
}

// eligibleShare is q, the share of an Embedded query's candidate blocks
// that the seq bound left eligible to read: 1 when it pruned none.
func eligibleShare(io metrics.Counters) float64 {
	if io.CandidateBlocks == 0 {
		return 1
	}
	return float64(io.CandidateBlocks-io.SeqPrunes) / float64(io.CandidateBlocks)
}

// modelParams derives live cost-model Params from the geometry of the
// table op actually reads: the per-attribute index table for stand-alone
// kinds, the primary table for Embedded and None (attr may be "" for GET).
func (db *DB) modelParams(attr string) costmodel.Params {
	p := costmodel.Params{
		LevelRatio: db.opts.LevelMultiplier,
		BitsPerKey: db.opts.BitsPerKey,
		NumAttrs:   len(db.opts.Attrs),
	}
	t := db.primary
	if idx, ok := db.indexes[attr]; ok {
		t = idx
	}
	if db.opts.Index == IndexEmbedded && db.opts.SecondaryBitsPerKey > 0 {
		// The LOOKUP false-positive term is governed by the per-block
		// secondary blooms, not the primary-key filter.
		p.BitsPerKey = db.opts.SecondaryBitsPerKey
	}
	p.Levels = t.NumStrata()
	shape := t.LevelShape()
	if len(shape) > 0 {
		p.LevelBlocks = make([]int, len(shape))
		for i, li := range shape {
			p.LevelBlocks[i] = li.Blocks
		}
		p.BlocksL0 = shape[0].Blocks
	}
	return p
}

// validationBlocks is B(K'): the distinct primary data blocks the keys of
// out map to, from metadata only (lsm.DB.DistinctBlocks).
func (db *DB) validationBlocks(out []Entry) int {
	keys := make([][]byte, len(out))
	for i := range out {
		keys[i] = []byte(out[i].Key)
	}
	return db.primary.DistinctBlocks(keys)
}
