package core

import (
	"bytes"
	"cmp"
	"slices"

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
				t0 := tr.Now()
				err := db.embeddedScanMem(strata, si, attr, lo, hi, heap, useFilters, seen, tr)
				phase := metrics.PhaseMemProbe
				if s.Frozen {
					phase = metrics.PhaseImmProbe
				}
				tr.Since(phase, t0)
				if err != nil {
					return err
				}
			} else {
				// Newest table first: a level's tables are disjoint, so
				// the order changes no answer, but the heap fills with
				// the newest matches and the tables after the first one
				// too old to improve it are skipped unread.
				t0 := tr.Now()
				for _, fm := range s.NewestFirst() {
					if heap.Full() && fm.Table().MaxSeq() <= heap.MinSeq() {
						break // nothing here or after can improve the heap
					}
					if err := db.embeddedScanTable(v, strata, si, fm, attr, lo, hi, useFilters, seen, &blk, heap, tr); err != nil {
						tr.Since(metrics.PhaseIndexProbe, t0)
						return err
					}
				}
				tr.Since(metrics.PhaseIndexProbe, t0)
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

// embeddedScanMem collects matches from the MemTable stratum strata[si]
// (the live MemTable or the frozen one): through the secondary B-tree when
// the Embedded index is active, by direct scan for NoIndex. A candidate
// must be its key's newest version in the stratum and shadowed by no
// stratum above. A key added is marked in seen when seen is non-nil.
func (db *DB) embeddedScanMem(strata []lsm.Stratum, si int, attr, lo, hi string, heap *topK, useFilters bool, seen map[string]bool, tr *metrics.Trace) error {
	s := strata[si]
	var err error
	visible := func(pk []byte) bool {
		hidden, serr := shadowed(strata[:si], pk, tr)
		err = cmp.Or(err, serr)
		return !hidden && serr == nil
	}
	add := func(e Entry) {
		heap.Add(e)
		if seen != nil {
			seen[e.Key] = true
		}
	}
	if useFilters {
		tree := s.MemSecTree(attr)
		if tree == nil {
			return nil
		}
		tree.AscendRange(lo, hi, func(_ string, ps []btree.Posting) bool {
			for _, p := range ps {
				if !heap.Worth(p.Seq) {
					continue
				}
				val, seq, deleted, ok := s.MemGet(p.Key)
				if !ok || deleted || seq != p.Seq {
					continue // superseded within this MemTable
				}
				if visible(p.Key) {
					add(Entry{Key: string(p.Key), Value: append([]byte(nil), val...), Seq: seq})
				}
			}
			return err == nil
		})
		return err
	}
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
		if visible(uk) && attrInRange(it.Value(), attr, lo, hi) {
			add(Entry{Key: string(uk), Value: append([]byte(nil), it.Value()...), Seq: ikey.Seq(ik)})
		}
	}
	return err
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
			candidates = tbl.SecondaryCandidatesTraced(attr, lo, tr)
		} else {
			candidates = tbl.SecondaryRangeCandidatesTraced(attr, lo, hi, tr)
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
		m := tr.BlockMark()
		err := tbl.LoadBlock(it, bi, tr)
		tr.CountLevelSince(strata[si].Level, m)
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
func (db *DB) candidateValid(v *lsm.View, strata []lsm.Stratum, si int, pk string, seq uint64,
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
	hidden, err := shadowed(strata[:si], []byte(pk), tr)
	return !hidden && err == nil, err
}

// shadowed reports whether a stratum in above holds a version of pk: a
// MemTable is asked directly, a table through its primary bloom filter,
// and a bloom positive is confirmed with a real read so a false positive
// cannot hide pk.
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
		for _, fm := range s.Tables {
			tbl := fm.Table()
			if !tbl.MayContainPrimaryTraced(pk, tr) {
				continue // pure in-memory rejection: the common case
			}
			m := tr.BlockMark()
			_, _, found, err := tbl.GetWith(&sc, pk)
			tr.CountLevelSince(s.Level, m)
			if err != nil || found {
				return found, err
			}
		}
	}
	return false, nil
}
