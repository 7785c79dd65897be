package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sync"

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
// LOOKUP and RANGELOOKUP scan the store stratum by stratum (lsm.View's
// Strata) — MemTable, frozen MemTable, each level-0 file, then each
// deeper level — reading only the data
// blocks whose filters pass, keeping a top-K min-heap by sequence number
// (Algorithms 5 and 8). Within a level the tables are read newest first
// by MaxSeq, and within a table the candidate blocks newest first by
// their recorded max seq; a full heap stops the level at the first table,
// and the table at the first block, too old to improve it. Candidate
// validity ("is this still the newest version of the record?") is
// checked with GetLite: a metadata-only probe of the strata above the
// candidate, touching disk only to confirm bloom positives.

// embeddedScan is the Embedded LOOKUP and RANGELOOKUP, and with
// useFilters false the NoIndex baseline: the identical traversal with
// every data block a candidate and no MemTable B-tree.
func (db *DB) embeddedScan(attr, lo, hi string, k int, useFilters bool, tr *metrics.Trace) ([]Entry, error) {
	var results []Entry
	err := db.primary.View(func(v *lsm.View) error {
		strata := v.Strata()
		heap := newTopK(k)
		// seen guards against double-reporting a primary key on the
		// full-GET validation path (ablation): it holds every key already
		// reported, from a MemTable too. The GetLite path cannot report
		// duplicates because older versions are invalidated by the
		// stratum holding the newer one.
		var seen map[string]bool
		if db.opts.DisableGetLite {
			seen = map[string]bool{}
		}
		// One block iterator, and its buffers, for every candidate block.
		var blk sstable.BlockIter

		// Phase attribution is per stratum: MemTable strata to
		// mem_probe/imm_probe, SSTable strata — including the interleaved
		// GetLite validity probes — to index_probe, with block_load /
		// cache_hit sub-phases from the traced block reads.
		for si, s := range strata {
			if s.IsMem() {
				if s.Frozen {
					tr.Enter(metrics.PhaseImmProbe)
				} else {
					tr.Enter(metrics.PhaseMemProbe)
				}
				if err := db.embeddedScanMem(strata, si, attr, lo, hi, heap, useFilters, seen, tr); err != nil {
					return err
				}
			} else {
				// Newest table first: a level's tables are disjoint, so
				// the order changes no answer, but the heap fills with
				// the newest matches and the tables after the first one
				// too old to improve it are skipped unread.
				tr.Enter(metrics.PhaseIndexProbe)
				for _, fm := range s.NewestFirst() {
					if heap.Full() && fm.Table().MaxSeq() <= heap.MinSeq() {
						break // nothing here or after can improve the heap
					}
					if err := db.embeddedScanTable(v, strata, si, fm, attr, lo, hi, useFilters, seen, &blk, heap, tr); err != nil {
						return err
					}
				}
			}
		}
		// Ordering the heap belongs to the phase that filled it: with the
		// per-record test cheap, sorting a few hundred unbounded-K results
		// is no longer lost in the scan.
		tr.Enter(metrics.PhaseIndexProbe)
		results = heap.Results()
		return nil
	})
	return results, err
}

// embeddedScanMem collects matches from the MemTable stratum strata[si]
// (the live MemTable or the frozen one): through the secondary B-tree when
// the Embedded index is active, by direct scan for NoIndex. A candidate
// must be its key's newest version in the stratum and shadowed by no
// stratum above. A key added is marked in seen when seen is non-nil.
//
// Through the B-tree, candidates are tried newest first, so a full heap
// ends the stratum at the first posting too old to enter it rather than
// after a probe, a key and a value copy for every posting in range. A
// value's posting list is in seq order, so a LOOKUP walks its one list
// backwards; a RANGELOOKUP tries its postings K at a time (memRange).
func (db *DB) embeddedScanMem(strata []lsm.Stratum, si int, attr, lo, hi string, heap *topK, useFilters bool, seen map[string]bool, tr *metrics.Trace) error {
	s := strata[si]
	if useFilters {
		tree := s.MemSecTree(attr)
		if tree == nil {
			return nil
		}
		if lo == hi {
			ps := tree.Get(lo)
			for i := len(ps) - 1; i >= 0 && heap.Worth(ps[i].Seq); i-- {
				if err := memCandidate(strata, si, ps[i], heap, seen, tr); err != nil {
					return err
				}
			}
			return nil
		}
		if heap.k > 0 {
			return memRange(strata, si, tree, lo, hi, heap, seen, tr)
		}
		var err error
		tree.AscendRange(lo, hi, func(_ string, ps []btree.Posting) bool {
			for _, p := range ps {
				if err = memCandidate(strata, si, p, heap, seen, tr); err != nil {
					return false
				}
			}
			return true
		})
		return err
	}
	var err error
	it := s.MemIter()
	var prevUser []byte
	for it.SeekToFirst(); it.Valid() && err == nil; it.Next() {
		ik := it.Key()
		uk := ikey.UserKey(ik)
		newest := prevUser == nil || !bytes.Equal(prevUser, uk)
		prevUser = append(prevUser[:0], uk...)
		if !newest || ikey.KindOf(ik) == ikey.KindDelete {
			continue
		}
		var hidden bool
		hidden, err = shadowed(strata[:si], uk, tr)
		if !hidden && err == nil && attrInRange(it.Value(), attr, lo, hi) {
			e := Entry{Key: string(uk), Value: append([]byte(nil), it.Value()...), Seq: ikey.Seq(ik)}
			heap.Add(e)
			if seen != nil {
				seen[e.Key] = true
			}
		}
	}
	return err
}

// memCandidate adds posting p of the MemTable stratum strata[si] to heap
// if it is its key's newest version in the stratum and no stratum above
// holds the key, marking the key in seen when seen is non-nil.
func memCandidate(strata []lsm.Stratum, si int, p btree.Posting, heap *topK, seen map[string]bool, tr *metrics.Trace) error {
	val, seq, deleted, ok := strata[si].MemGet(p.Key)
	if !ok || deleted || seq != p.Seq {
		return nil // superseded within this MemTable
	}
	hidden, err := shadowed(strata[:si], p.Key, tr)
	if hidden || err != nil {
		return err
	}
	e := Entry{Key: string(p.Key), Value: append([]byte(nil), val...), Seq: seq}
	heap.Add(e)
	if seen != nil {
		seen[e.Key] = true
	}
	return nil
}

// memSelection is a MemTable RANGELOOKUP's scratch: the newest postings
// not yet tried, at most K of them.
type memSelection struct{ h []btree.Posting }

var memSelections = sync.Pool{New: func() any { return new(memSelection) }}

func olderPosting(a, b btree.Posting) bool { return a.Seq < b.Seq }

// memRange tries a bounded heap's candidates among the postings in
// [lo, hi] of a MemTable stratum's B-tree newest first, K at a time: it
// selects the K newest postings below the last one tried that could
// enter the heap, tries them newest first, and selects again only when
// superseded or shadowed postings left the heap short of them. What it
// adds is what trying every posting would add; the scratch is K postings.
func memRange(strata []lsm.Stratum, si int, tree *btree.Tree, lo, hi string, heap *topK, seen map[string]bool, tr *metrics.Trace) error {
	sel := memSelections.Get().(*memSelection)
	defer func() {
		clear(sel.h[:cap(sel.h)]) // the pool keeps no MemTable's keys alive
		memSelections.Put(sel)
	}()
	below := uint64(math.MaxUint64) // every posting tried so far is at or above it
	for {
		sel.h = selectMemPostings(tree, lo, hi, below, heap, sel.h[:0])
		slices.SortFunc(sel.h, func(a, b btree.Posting) int { return cmp.Compare(b.Seq, a.Seq) })
		for _, p := range sel.h {
			if !heap.Worth(p.Seq) {
				return nil // every posting left is older still
			}
			if err := memCandidate(strata, si, p, heap, seen, tr); err != nil {
				return err
			}
		}
		if len(sel.h) < heap.k {
			return nil // every posting that could enter was tried
		}
		if below = sel.h[len(sel.h)-1].Seq; !heap.Worth(below - 1) {
			return nil // nothing older can enter
		}
	}
}

// selectMemPostings returns in sel, a min-heap by seq, the heap.k newest
// postings in [lo, hi] below seq below that heap could take. The B-tree
// walk skips every value and subtree without a posting newer than the
// floor: the heap's minimum while it is full, then also the selection's
// once it is full. A value's list is walked from its newest posting under
// the bound back to the floor.
//
//lsm:hotpath
func selectMemPostings(tree *btree.Tree, lo, hi string, below uint64, heap *topK, sel []btree.Posting) []btree.Posting {
	var floor uint64
	if heap.Full() {
		floor = heap.MinSeq()
	}
	tree.DescendRangeAbove(lo, hi, floor, func(_ string, ps []btree.Posting) uint64 {
		n, _ := slices.BinarySearchFunc(ps, below, func(p btree.Posting, seq uint64) int { return cmp.Compare(p.Seq, seq) })
		for i := n - 1; i >= 0 && ps[i].Seq > floor; i-- {
			if len(sel) < heap.k {
				sel = append(sel, ps[i])
				siftUp(sel, len(sel)-1, olderPosting)
			} else {
				sel[0] = ps[i]
				siftDown(sel, 0, olderPosting)
			}
			if len(sel) == heap.k {
				floor = max(floor, sel[0].Seq)
			}
		}
		return floor
	})
	return sel
}

// embeddedScanTable reads the candidate blocks of one table through it and
// adds to heap every live entry whose attr lies in [lo, hi], whose
// sequence number is worth the top-K and which passes the validity check
// against the strata above. With K > 0 it reads them in descending block
// max seq and stops at the first one no newer than a full heap's minimum;
// a table without the column bounds every block by its MaxSeq. The
// attribute is tested where it lies in the block; key and value are
// copied only for an entry that is added, as the next block may be loaded
// over them.
//
//lsm:hotpath
func (db *DB) embeddedScanTable(v *lsm.View, strata []lsm.Stratum, si int, fm *lsm.FileMeta,
	attr, lo, hi string, useFilters bool, seen map[string]bool, it *sstable.BlockIter, heap *topK, tr *metrics.Trace) error {

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
			candidates = tbl.SecondaryCandidates(attr, lo, tr)
		} else {
			candidates = tbl.SecondaryRangeCandidates(attr, lo, hi, tr)
		}
	}

	if heap.k > 0 && tbl.HasBlockMaxSeqs() {
		slices.SortFunc(candidates, func(a, b int) int { return cmp.Compare(tbl.BlockMaxSeq(b), tbl.BlockMaxSeq(a)) })
	}
	for i, bi := range candidates {
		if heap.Full() && tbl.BlockMaxSeq(bi) <= heap.MinSeq() {
			tr.Count(metrics.CtrSeqPrunes, int64(len(candidates)-i))
			break
		}
		tr.AtLevel(strata[si].Level)
		if err := tbl.LoadBlock(it, bi, tr); err != nil {
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
func (db *DB) candidateValid(v *lsm.View, strata []lsm.Stratum, si int, pk string, seq uint64,
	attr, lo, hi string, seen map[string]bool, tr *metrics.Trace) (bool, error) {

	tr.Count(metrics.CtrValidations, 1)
	if db.opts.DisableGetLite {
		if seen[pk] {
			return false, nil
		}
		tr.IOOnlyBegin()
		value, ok, err := v.Get([]byte(pk), tr)
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
	hidden, err := shadowed(strata[:si], []byte(pk), tr)
	return !hidden && err == nil, err
}

// shadowed reports whether a stratum in above holds a version of pk: a
// MemTable is asked directly, a table stratum through the primary bloom
// filter of the one table that may hold pk, and a bloom positive is
// confirmed with a real read so a false positive cannot hide pk.
func shadowed(above []lsm.Stratum, pk []byte, tr *metrics.Trace) (bool, error) {
	var sc sstable.GetScratch // reused across every bloom-positive probe
	sc.Trace = tr
	for _, s := range above {
		if s.IsMem() {
			if _, _, _, ok := s.MemGet(pk); ok {
				return true, nil // any MemTable version is newer
			}
			continue
		}
		fm := s.FindFile(pk)
		if fm == nil {
			continue
		}
		if _, ok := fm.Table().PrimaryBlock(pk, tr); !ok {
			continue // pure in-memory rejection: the common case
		}
		tr.AtLevel(s.Level)
		_, _, found, err := fm.Table().GetWith(&sc, pk)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}
