package lsm

import (
	"fmt"

	"leveldbpp/internal/ikey"
)

// VerifyReport summarizes a full structural and checksum audit of the
// tree.
type VerifyReport struct {
	Tables   int
	Blocks   int
	Entries  int
	Problems []string
}

// OK reports whether the audit found no problems.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Verify audits the whole store under a read lock: every data block of
// every SSTable is read and checksum-verified, entry order is checked
// against the internal-key comparator, table key ranges are checked
// against the manifest, and the level-shape invariants of version.check
// (no empty table; sorted and disjoint above level 0) are enforced. It
// reads every block, so it costs a full scan.
func (db *DB) Verify() (VerifyReport, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var rep VerifyReport
	if db.closed {
		return rep, ErrClosed
	}

	for l, files := range db.v.levels {
		for _, fm := range files {
			rep.Tables++
			rep.Blocks += fm.tbl.NumBlocks()
			db.verifyTable(&rep, l, fm)
		}
	}
	rep.Problems = append(rep.Problems, db.v.check()...)

	// MemTable ordering (the skip list enforces it; verify anyway).
	it := db.mem.iter()
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		rep.Entries++
		if prev != nil && ikey.Compare(prev, it.Key()) >= 0 {
			rep.problemf("memtable entries out of order at %s", ikey.String(it.Key()))
		}
		prev = append(prev[:0], it.Key()...)
	}
	return rep, nil
}

func (db *DB) verifyTable(rep *VerifyReport, level int, fm *FileMeta) {
	it := fm.tbl.NewIterator(false)
	var prev []byte
	var first, last []byte
	n := 0
	for it.Next() {
		n++
		rep.Entries++
		if first == nil {
			first = append([]byte(nil), it.Key()...)
		}
		last = append(last[:0], it.Key()...)
		if prev != nil && ikey.Compare(prev, it.Key()) >= 0 {
			rep.problemf("table %06d (L%d): entries out of order at %s", fm.Num, level, ikey.String(it.Key()))
		}
		prev = append(prev[:0], it.Key()...)
	}
	if err := it.Err(); err != nil {
		rep.problemf("table %06d (L%d): %v", fm.Num, level, err)
		return // corruption recorded; keep auditing other tables
	}
	if n != fm.tbl.EntryCount() {
		rep.problemf("table %06d (L%d): iterated %d entries, meta says %d", fm.Num, level, n, fm.tbl.EntryCount())
	}
	if n > 0 {
		if ikey.Compare(first, fm.Smallest) != 0 {
			rep.problemf("table %06d (L%d): first key %s != manifest smallest %s",
				fm.Num, level, ikey.String(first), ikey.String(fm.Smallest))
		}
		if ikey.Compare(last, fm.Largest) != 0 {
			rep.problemf("table %06d (L%d): last key %s != manifest largest %s",
				fm.Num, level, ikey.String(last), ikey.String(fm.Largest))
		}
	}
}
