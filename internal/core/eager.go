package core

import (
	"sort"
	"sync"

	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// The Eager index (paper §4.1.1) maintains, per indexed attribute, a
// stand-alone LSM table mapping attribute value → posting list. Every PUT
// performs a read-modify-write of the affected list ("in-place" update in
// the logical sense — physically it writes a new list that invalidates the
// older ones), so LOOKUP needs only the single newest list, but writes
// suffer the paper's headline write amplification (WAMF ≈ PL_S·22·(L−1)).

// eagerUpdate is the read-modify-write: fetch the current list, prepend
// the new posting, drop the superseded entry for the same primary key,
// and write the list back. The stored list is already newest-first, so
// AppendAdd streams the update — no re-sort, and no intermediate []Entry
// — into the DB's scratch buffer.
//
//lsm:locked — writeMu is held by indexWrite's callers.
func (db *DB) eagerUpdate(idx *lsm.DB, attrValue []byte, key string, seq uint64, del bool) error {
	cur, _, err := idx.Get(attrValue)
	if err != nil {
		return err
	}
	out, decoded, err := postings.AppendAdd(db.postBuf[:0], cur, key, seq, del, db.pf)
	if err != nil {
		return err
	}
	st := idx.Stats()
	st.PostingsBytesDecoded.Add(int64(len(cur)))
	st.PostingsEntriesDecoded.Add(decoded)
	err = idx.Put(attrValue, out)
	db.postBuf = out[:0]
	return err
}

// eagerLookup is Algorithm 2: one GET on the index table retrieves the
// complete, newest-first posting list; candidates are validated with GETs
// on the data table until K valid results are found.
func (db *DB) eagerLookup(attr, value string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	t0 := tr.Now()
	// IOOnly: the nested GET's own top-level phases (mem/l0/level probes)
	// must not tile inside this op's index_probe window; only its block
	// counters carry through to the trace.
	tr.IOOnlyBegin()
	data, found, err := idx.GetTraced([]byte(value), tr)
	tr.IOOnlyEnd()
	tr.Since(metrics.PhaseIndexProbe, t0)
	if err != nil || !found {
		return nil, err
	}
	tr.Count(metrics.CtrPostingFragments, 1)
	// Stream the list instead of materializing it: the cursor decodes
	// entries one at a time (v2), so reaching K valid results leaves the
	// tail of the list undecoded. The mark alternates the trace between
	// posting_merge/postings_decode (cursor stepping) and validate.
	var c postings.Cursor
	mark := tr.Now()
	if err := c.Reset(data); err != nil {
		return nil, err
	}
	var out []Entry
	for c.Next() {
		if c.Del() {
			continue
		}
		pk := string(c.Key())
		seq := c.Seq()
		tr.Since(metrics.PhasePostingMerge, mark)
		tr.Since(metrics.PhasePostingsDecode, mark)
		doc, valid, err := db.validateTraced(pk, attr, value, value, tr)
		mark = tr.Now()
		if err != nil {
			return nil, err
		}
		if !valid {
			continue
		}
		out = append(out, Entry{Key: pk, Value: doc, Seq: seq})
		if k > 0 && len(out) >= k {
			break
		}
	}
	tr.Since(metrics.PhasePostingMerge, mark)
	tr.Since(metrics.PhasePostingsDecode, mark)
	if err := c.Err(); err != nil {
		return nil, err
	}
	st := idx.Stats()
	st.PostingsBytesDecoded.Add(c.BytesDecoded())
	st.PostingsEntriesDecoded.Add(c.EntriesDecoded())
	tr.Count(metrics.CtrPostingEntries, c.EntriesDecoded())
	return out, nil
}

// eagerRangeLookup (paper §4.1.1 RANGELOOKUP) range-scans the index table
// over [lo, hi]; each matching attribute value contributes its newest
// posting list; a global min-heap on sequence numbers selects the top-K
// across values.
func (db *DB) eagerRangeLookup(attr, lo, hi string, k int, tr *metrics.Trace) ([]Entry, error) {
	idx := db.indexes[attr]
	heap := newTopK(k)

	// Gather candidates cheaply first (index I/O), then validate in
	// recency order (data-table I/O) until K valid results stand. The
	// mark alternates the trace between index_probe (scan advance) and
	// posting_merge (list decode) with no overlap.
	var candidates []postings.Entry
	var decodedBytes, decodedEntries int64
	mark := tr.Now()
	err := idx.ScanTraced([]byte(lo), upperBoundExclusive(hi), tr, func(key, value []byte, _ uint64) bool {
		tr.Since(metrics.PhaseIndexProbe, mark)
		tD := tr.Now()
		list, err := postings.Decode(value)
		if err == nil {
			candidates = append(candidates, postings.Live(list)...)
			decodedBytes += int64(len(value))
			decodedEntries += int64(len(list))
			tr.Count(metrics.CtrPostingFragments, 1)
			tr.Count(metrics.CtrPostingEntries, int64(len(list)))
		} // else: skip undecodable lists rather than abort
		tr.Since(metrics.PhasePostingMerge, tD)
		tr.Since(metrics.PhasePostingsDecode, tD)
		mark = tr.Now()
		return true
	})
	tr.Since(metrics.PhaseIndexProbe, mark)
	if err != nil {
		return nil, err
	}
	st := idx.Stats()
	st.PostingsBytesDecoded.Add(decodedBytes)
	st.PostingsEntriesDecoded.Add(decodedEntries)
	if err := db.validateCandidates(candidates, attr, lo, hi, k, heap, tr); err != nil {
		return nil, err
	}
	return heap.Results(), nil
}

// validateCandidates sorts candidates newest-first and validates them
// against the data table until k valid entries are collected (k <= 0
// validates everything).
func (db *DB) validateCandidates(cands []postings.Entry, attr, lo, hi string, k int, heap *topK, tr *metrics.Trace) error {
	// As in eagerLookup, the mark alternates the trace between
	// posting_merge — ordering the candidates, then walking them (dedupe,
	// Worth, heap) — and validate, so the walk's share of a lookup shows
	// however cheap a validation gets.
	mark := tr.Now()
	sortPostingsBySeqDesc(cands)
	if db.opts.LookupParallelism > 1 && len(cands) > 1 {
		tr.Since(metrics.PhasePostingMerge, mark)
		// Workers carry no trace (a Trace is single-goroutine); the whole
		// fan-out is attributed to validate from this side.
		t0 := tr.Now()
		err := db.validateCandidatesParallel(cands, attr, lo, hi, heap)
		tr.Since(metrics.PhaseValidate, t0)
		return err
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Key] {
			continue // an older posting for a key already decided
		}
		seen[c.Key] = true
		if !heap.Worth(c.Seq) {
			continue
		}
		tr.Since(metrics.PhasePostingMerge, mark)
		doc, valid, err := db.validateTraced(c.Key, attr, lo, hi, tr)
		mark = tr.Now()
		if err != nil {
			return err
		}
		if valid {
			heap.Add(Entry{Key: c.Key, Value: doc, Seq: c.Seq})
			if heap.Full() {
				// Remaining candidates are all older; the heap cannot
				// change further.
				break
			}
		}
	}
	tr.Since(metrics.PhasePostingMerge, mark)
	return nil
}

// validateCandidatesParallel processes the (sorted, newest-first)
// candidates in chunks: each chunk's data-table validations run on
// LookupParallelism goroutines, and the outcomes fold into the heap in
// sequence order. The fold applies the same Worth/Full rules at the same
// points as the sequential loop, so the returned top-K is identical; the
// only difference is that up to one chunk of candidates past the
// sequential stopping point may get validated (extra reads, same answer).
func (db *DB) validateCandidatesParallel(cands []postings.Entry, attr, lo, hi string, heap *topK) error {
	seen := map[string]bool{}
	workers := db.opts.LookupParallelism
	chunkSize := workers * 4

	type outcome struct {
		doc   []byte
		valid bool
		err   error
	}
	chunk := make([]postings.Entry, 0, chunkSize)

	flush := func() (done bool, err error) {
		if len(chunk) == 0 {
			return false, nil
		}
		outcomes := make([]outcome, len(chunk))
		next := make(chan int)
		var wg sync.WaitGroup
		n := workers
		if n > len(chunk) {
			n = len(chunk)
		}
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					doc, valid, err := db.validate(chunk[i].Key, attr, lo, hi)
					outcomes[i] = outcome{doc: doc, valid: valid, err: err}
				}
			}()
		}
		for i := range chunk {
			next <- i
		}
		close(next)
		wg.Wait()
		for i, o := range outcomes {
			if o.err != nil {
				return false, o.err
			}
			if !o.valid || !heap.Worth(chunk[i].Seq) {
				continue
			}
			heap.Add(Entry{Key: chunk[i].Key, Value: o.doc, Seq: chunk[i].Seq})
			if heap.Full() {
				return true, nil
			}
		}
		chunk = chunk[:0]
		return false, nil
	}

	for _, c := range cands {
		if seen[c.Key] {
			continue // an older posting for a key already decided
		}
		seen[c.Key] = true
		if !heap.Worth(c.Seq) {
			continue
		}
		chunk = append(chunk, c)
		if len(chunk) >= chunkSize {
			done, err := flush()
			if err != nil || done {
				return err
			}
		}
	}
	_, err := flush()
	return err
}

func sortPostingsBySeqDesc(cands []postings.Entry) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Seq > cands[j].Seq })
}

// upperBoundExclusive converts an inclusive string upper bound into the
// exclusive byte bound used by lsm.Scan.
func upperBoundExclusive(hi string) []byte {
	return append([]byte(hi), 0x00)
}
