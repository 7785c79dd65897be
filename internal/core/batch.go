package core

import (
	"time"

	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
)

// Batch collects Put/Delete operations that commit atomically on the
// primary table (one WAL frame), each operation's index records at its
// seq (DB.write has the order).
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	del   bool
	key   string
	value []byte // unchanged until the write returns
}

// Put queues key → value.
func (b *Batch) Put(key string, value []byte) {
	b.ops = append(b.ops, batchOp{key: key, value: append([]byte(nil), value...)})
}

// Delete queues a delete of key.
func (b *Batch) Delete(key string) {
	b.ops = append(b.ops, batchOp{del: true, key: key})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply commits the batch. It is sampled and observed as one operation,
// OpBatch, as Put and Delete are.
func (db *DB) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpBatch)
	tr.Enter(metrics.PhaseWriteWait)
	var buf [4]attrSlot
	err := db.write(b.ops, attrSlots(&buf, len(db.opts.Attrs)), tr)
	tr.Finish()
	db.ops.Observe(metrics.OpBatch, time.Since(t0))
	return err
}

// write commits ops — a batch, or a lone PUT or DEL — to the primary
// table as one batch and maintains the stand-alone index tables, each
// index record at its op's seq. A put's index records go before the
// primary commit, so a visible document is never missing its posting
// (one whose document is not visible yet is validated away); a delete's
// go after it, so a document still visible is never hidden by its
// deletion marker. An index table takes seqs in increasing order, so
// only the puts before the first delete go first. slots is scan
// scratch; it is left holding the last indexed document's values.
func (db *DB) write(ops []batchOp, slots []attrSlot, tr *metrics.Trace) error {
	var pb lsm.Batch
	for _, op := range ops {
		if op.del {
			pb.Delete([]byte(op.key))
		} else {
			// The primary table copies each record into its MemTable, so
			// the batch only borrows op.value until ApplyAt returns.
			pb.PutNoCopy([]byte(op.key), op.value)
		}
	}
	if db.indexes == nil {
		return db.primary.ApplyAt(&pb, 0, tr)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	tr.Enter(metrics.PhaseIndexUpdate)

	// docs[i] is the document ops[i] indexes: a put's own, a delete's
	// old one — the batch's put of the key since its last delete there,
	// else the stored document (nil: nothing was indexed).
	var one [1][]byte
	docs := one[:]
	var written map[string][]byte
	if len(ops) > 1 {
		docs, written = make([][]byte, len(ops)), map[string][]byte{}
	}
	for i, op := range ops {
		if !op.del {
			docs[i] = op.value
			if written != nil {
				written[op.key] = op.value
			}
			continue
		}
		doc, ok := written[op.key]
		if !ok {
			// IOOnly: the GET's block reads reach the trace, its time
			// stays in index_update.
			tr.IOOnlyBegin()
			v, found, err := db.primary.Get([]byte(op.key), tr)
			tr.IOOnlyEnd()
			if err != nil {
				return err
			}
			if found {
				doc = v
			}
		}
		delete(written, op.key)
		docs[i] = doc
	}
	seq := db.primary.LastSeq() + 1
	before := 0
	for before < len(ops) && !ops[before].del {
		before++
	}
	err := db.indexWrite(ops[:before], docs, slots, seq, tr)
	if err == nil {
		err = db.primary.ApplyAt(&pb, seq, tr)
	}
	if err != nil {
		db.primary.AdvanceSeq(seq + uint64(len(ops)) - 1) // an index table may hold these seqs already
		return err
	}
	tr.Enter(metrics.PhaseIndexUpdate)
	return db.indexWrite(ops[before:], docs[before:], slots, seq+uint64(before), tr)
}

// indexWrite adds the index records of ops to the stand-alone index
// tables, ops[i]'s at seq+i: for every indexed attribute docs[i]
// carries, the (attribute value, key) pair goes to that attribute's
// table, for a delete as a deletion marker. The values go into the index
// keys as they are; the engine copies a key before keeping it. Eager's
// list reads record their block accesses into tr.
//
//lsm:locked — writeMu is held by write.
func (db *DB) indexWrite(ops []batchOp, docs [][]byte, slots []attrSlot, seq uint64, tr *metrics.Trace) error {
	for i, op := range ops {
		if docs[i] == nil {
			continue
		}
		scanAttrs(docs[i], db.opts.Attrs, slots)
		for a, sl := range slots {
			if sl.val == nil {
				continue
			}
			idx := db.indexes[db.opts.Attrs[a]]
			var err error
			switch db.opts.Index {
			case IndexEager:
				err = db.eagerUpdate(idx, sl.val, op.key, seq+uint64(i), op.del, tr)
			case IndexLazy:
				err = db.lazyAppend(idx, sl.val, op.key, seq+uint64(i), op.del)
			case IndexComposite:
				err = compositeWrite(idx, sl.val, op.key, seq+uint64(i), op.del)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Scan iterates the primary table over [lo, hi] (inclusive; empty hi
// means unbounded) in key order, visiting only the newest live version of
// each key — LevelDB's range query API, which the paper's Eager
// RANGELOOKUP builds on. fn returning false stops the scan. The scan is
// traced and observed as one operation, fn's time included.
func (db *DB) Scan(lo, hi string, fn func(key string, value []byte) bool) error {
	t0 := time.Now()
	tr := db.tracer.Start(metrics.OpScan)
	var hiExcl []byte
	if hi != "" {
		hiExcl = upperBoundExclusive(hi)
	}
	err := db.primary.Scan([]byte(lo), hiExcl, tr, func(k, v []byte, _ uint64) bool {
		return fn(string(k), v)
	})
	tr.Finish()
	db.ops.Observe(metrics.OpScan, time.Since(t0))
	return err
}
