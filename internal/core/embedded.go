package core

import (
	"bytes"

	"leveldbpp/internal/btree"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/sstable"
)

// The Embedded index (paper §3) keeps no separate table: every SSTable of
// the primary table carries per-block bloom filters and zone maps for each
// indexed attribute, plus a file-level zone map, all memory resident; the
// MemTable side is a B-tree from attribute value to postings.
//
// LOOKUP and RANGELOOKUP scan the store stratum by stratum — MemTable,
// each level-0 file, then each deeper level — reading only the data
// blocks whose filters pass, keeping a top-K min-heap by sequence number
// (Algorithms 5 and 8). Candidate validity ("is this still the newest
// version of the record?") is checked with GetLite: a metadata-only probe
// of the strata above the candidate, touching disk only to confirm bloom
// positives.

// stratum is one time-ordered component of the store: the MemTable, the
// frozen MemTable awaiting background flush (if any), or a set of
// SSTables (one table for an L0 stratum, a whole level otherwise).
type stratum struct {
	isMem  bool
	isImm  bool
	memMax uint64 // max seq of a MemTable stratum (tables empty)
	level  int    // LSM level of a table stratum (block attribution)
	tables []*lsm.FileMeta
}

func (s stratum) maxSeq() uint64 {
	if s.isMem || s.isImm {
		return s.memMax
	}
	var m uint64
	for _, fm := range s.tables {
		if ms := fm.Table().MaxSeq(); ms > m {
			m = ms
		}
	}
	return m
}

// strataOf decomposes a view into newest-first strata. The frozen
// MemTable (background mode) sits between the MemTable and level 0; its
// memMax matters for the early-exit check — without it a full heap would
// wrongly conclude no remaining stratum can improve it.
func strataOf(v *lsm.View) []stratum {
	out := []stratum{{isMem: true, memMax: v.MemMaxSeq()}}
	if v.HasImm() {
		out = append(out, stratum{isImm: true, memMax: v.ImmMaxSeq()})
	}
	for _, fm := range v.L0() {
		out = append(out, stratum{tables: []*lsm.FileMeta{fm}})
	}
	for l := 1; l <= v.MaxLevel(); l++ {
		if files := v.Level(l); len(files) > 0 {
			out = append(out, stratum{level: l, tables: files})
		}
	}
	return out
}

func (db *DB) embeddedLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	return db.embeddedScan(attr, value, value, k, true, tr)
}

func (db *DB) embeddedRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	return db.embeddedScan(attr, lo, hi, k, true, tr)
}

// scanLookup is the NoIndex baseline: the identical traversal with every
// data block a candidate and no MemTable B-tree.
func (db *DB) scanLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	return db.embeddedScan(attr, lo, hi, k, false, tr)
}

func (db *DB) embeddedScan(attr, lo, hi string, k int, useFilters bool, tr *metrics.Trace) ([]Entry, error) {
	var results []Entry
	err := db.primary.View(func(v *lsm.View) error {
		strata := strataOf(v)
		heap := newTopK(k)
		// seen guards against double-reporting a primary key on the
		// full-GET validation path (ablation); the GetLite path cannot
		// report duplicates because older versions are invalidated by the
		// stratum holding the newer one.
		var seen map[string]bool
		if db.opts.DisableGetLite {
			seen = map[string]bool{}
		}

		// Phase attribution is per stratum: MemTable strata to
		// mem_probe/imm_probe, SSTable strata — including the interleaved
		// GetLite validity probes — to index_probe, with block_load /
		// cache_hit sub-phases from the traced block reads.
		for si, s := range strata {
			if s.isMem || s.isImm {
				t0 := tr.Now()
				err := db.embeddedScanMem(v, s.isImm, attr, lo, hi, heap, useFilters)
				phase := metrics.PhaseMemProbe
				if s.isImm {
					phase = metrics.PhaseImmProbe
				}
				tr.Since(phase, t0)
				if err != nil {
					return err
				}
			} else {
				t0 := tr.Now()
				for _, fm := range s.tables {
					if heap.Full() && fm.Table().MaxSeq() <= heap.MinSeq() {
						continue // nothing here can improve the heap
					}
					if err := db.embeddedScanTable(v, strata, si, fm, attr, lo, hi, useFilters, seen, heap, tr); err != nil {
						tr.Since(metrics.PhaseIndexProbe, t0)
						return err
					}
				}
				tr.Since(metrics.PhaseIndexProbe, t0)
			}
			// Paper: scan to the end of a level before deciding; stop once
			// no remaining stratum can hold a newer match.
			if heap.Full() {
				remainingMax := uint64(0)
				for _, r := range strata[si+1:] {
					if m := r.maxSeq(); m > remainingMax {
						remainingMax = m
					}
				}
				if remainingMax <= heap.MinSeq() {
					break
				}
			}
		}
		// Ordering the heap belongs to the phase that filled it: with the
		// per-record test cheap, sorting a few hundred unbounded-K results
		// is no longer lost in the scan.
		t0 := tr.Now()
		results = heap.Results()
		tr.Since(metrics.PhaseIndexProbe, t0)
		return nil
	})
	return results, err
}

// embeddedScanMem collects matches from a MemTable stratum (the live
// MemTable, or with imm set the frozen one): through the secondary B-tree
// when the Embedded index is active, by direct scan for NoIndex.
// Candidates are validated against the stratum itself — and, for the
// frozen MemTable, against the live MemTable, whose every version is
// newer.
func (db *DB) embeddedScanMem(v *lsm.View, imm bool, attr, lo, hi string, heap *topK, useFilters bool) error {
	get := v.MemGet
	if imm {
		get = v.ImmGet
	}
	shadowedByMem := func(pk []byte) bool {
		if !imm {
			return false
		}
		_, _, _, ok := v.MemGet(pk)
		return ok
	}
	if useFilters {
		tree := v.MemSecTree(attr)
		if imm {
			tree = v.ImmSecTree(attr)
		}
		if tree == nil {
			return nil
		}
		tree.AscendRange(lo, hi, func(_ string, ps []btree.Posting) bool {
			for _, p := range ps {
				if !heap.Worth(p.Seq) {
					continue
				}
				val, seq, deleted, ok := get(p.Key)
				if !ok || deleted || seq != p.Seq {
					continue // superseded within this MemTable
				}
				if shadowedByMem(p.Key) {
					continue // live MemTable holds a newer version
				}
				heap.Add(Entry{Key: string(p.Key), Value: append([]byte(nil), val...), Seq: seq})
			}
			return true
		})
		return nil
	}
	it := v.MemIter()
	if imm {
		it = v.ImmIter()
	}
	if it == nil {
		return nil
	}
	var prevUser []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		uk := ikey.UserKey(ik)
		newest := prevUser == nil || !bytes.Equal(prevUser, uk)
		prevUser = append(prevUser[:0], uk...)
		if !newest || ikey.KindOf(ik) == ikey.KindDelete {
			continue
		}
		if shadowedByMem(uk) {
			continue
		}
		if !attrInRange(it.Value(), attr, lo, hi) {
			continue
		}
		heap.Add(Entry{Key: string(uk), Value: append([]byte(nil), it.Value()...), Seq: ikey.Seq(ik)})
	}
	return nil
}

// embeddedScanTable reads the candidate blocks of one table and adds to
// heap every live entry whose attr lies in [lo, hi], whose sequence number
// is worth the top-K and which passes the validity check against the
// strata above. The attribute is tested where it lies in the block; key
// and value are copied only for an entry that is added.
//
//lsm:hotpath
func (db *DB) embeddedScanTable(v *lsm.View, strata []stratum, si int, fm *lsm.FileMeta,
	attr, lo, hi string, useFilters bool, seen map[string]bool, heap *topK, tr *metrics.Trace) error {

	tbl := fm.Table()
	var candidates []int
	if !useFilters {
		candidates = make([]int, tbl.NumBlocks())
		for i := range candidates {
			candidates[i] = i
		}
		tr.Count(metrics.CtrCandidateBlocks, int64(len(candidates)))
	} else {
		if !db.opts.DisableFileZoneMap {
			if _, _, ok := tbl.FileZone(attr); !ok {
				return nil
			}
		}
		if lo == hi {
			candidates = tbl.SecondaryCandidatesTraced(attr, lo, tr)
		} else {
			candidates = tbl.SecondaryRangeCandidatesTraced(attr, lo, hi, tr)
		}
	}

	for _, bi := range candidates {
		m := tr.BlockMark()
		it, err := tbl.BlockIteratorTraced(bi, false, tr)
		tr.CountLevelSince(strata[si].level, m)
		if err != nil {
			return err
		}
		matchedInBlock := false
		for it.Next() {
			ik := it.Key()
			if ikey.KindOf(ik) == ikey.KindDelete || !attrInRange(it.Value(), attr, lo, hi) {
				continue
			}
			matchedInBlock = true
			seq := ikey.Seq(ik)
			if !heap.Worth(seq) {
				continue
			}
			pk := string(ikey.UserKey(ik))
			valid, err := db.candidateValid(v, strata, si, pk, seq, attr, lo, hi, seen, tr)
			if err != nil {
				return err
			}
			if valid {
				heap.Add(Entry{Key: pk, Value: append([]byte(nil), it.Value()...), Seq: seq}) //lsm:allocok the result's own copy
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
		if useFilters && lo == hi && !matchedInBlock {
			// The block's secondary bloom passed for this exact value but
			// the block held no match: a secondary-filter false positive.
			tr.Count(metrics.CtrBloomFalsePositives, 1)
		}
	}
	return nil
}

// candidateValid implements GetLite (paper Algorithm 5): the candidate is
// valid iff no newer version of pk exists in the strata above it. Each
// table in the tree holds at most one version per user key (flush-time
// dedup), so within-stratum shadowing cannot occur. With DisableGetLite
// the check degrades to the paper's alternative — a full GET from the top
// with value comparison — which costs real block reads.
func (db *DB) candidateValid(v *lsm.View, strata []stratum, si int, pk string, seq uint64,
	attr, lo, hi string, seen map[string]bool, tr *metrics.Trace) (bool, error) {

	tr.Count(metrics.CtrValidations, 1)
	if db.opts.DisableGetLite {
		if seen[pk] {
			return false, nil
		}
		tr.IOOnlyBegin()
		value, ok, err := v.GetTraced([]byte(pk), tr)
		tr.IOOnlyEnd()
		if err != nil || !ok {
			return false, err
		}
		valid := attrInRange(value, attr, lo, hi)
		if valid {
			seen[pk] = true
		}
		return valid, nil
	}

	pkb := []byte(pk)
	var sc sstable.GetScratch // reused across every bloom-positive probe
	sc.Trace = tr
	for _, s := range strata[:si] {
		if s.isMem {
			if _, _, _, ok := v.MemGet(pkb); ok {
				return false, nil // any MemTable version is newer
			}
			continue
		}
		if s.isImm {
			if _, _, _, ok := v.ImmGet(pkb); ok {
				return false, nil // any frozen-MemTable version is newer
			}
			continue
		}
		for _, fm := range s.tables {
			tbl := fm.Table()
			if !tbl.MayContainPrimaryTraced(pkb, tr) {
				continue // pure in-memory rejection: the common case
			}
			// Bloom positive: confirm with a real read so a false
			// positive cannot wrongly invalidate the candidate.
			m := tr.BlockMark()
			_, _, found, err := tbl.GetWith(&sc, pkb)
			tr.CountLevelSince(s.level, m)
			if err != nil {
				return false, err
			}
			if found {
				return false, nil
			}
		}
	}
	return true, nil
}
