package core

import (
	"leveldbpp/internal/lsm"
)

// Batch collects Put/Delete operations that commit atomically on the
// primary table (one WAL frame). Secondary index maintenance runs per
// operation in batch order, each index record at its operation's seq, and
// orders itself as single writes do: the index records of the puts before
// the batch's first delete are committed before the primary batch, the
// rest after it (an index table takes seqs in increasing order, and a
// deletion marker must follow its tombstone).
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	del   bool
	key   string
	value []byte
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

// Apply commits the batch.
func (db *DB) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if db.indexes != nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}

	// Deletes need the old document to mark index entries; resolve each
	// against earlier batch ops first, then the store.
	oldDocs := make([][]byte, len(b.ops))
	if db.indexes != nil {
		written := map[string][]byte{}
		for i, op := range b.ops {
			if op.del {
				if doc, ok := written[op.key]; ok {
					oldDocs[i] = doc
				} else {
					v, found, err := db.primary.Get([]byte(op.key))
					if err != nil {
						return err
					}
					if found {
						oldDocs[i] = v
					}
				}
				delete(written, op.key)
			} else {
				written[op.key] = op.value
			}
		}
	}

	var pb lsm.Batch
	for _, op := range b.ops {
		if op.del {
			pb.Delete([]byte(op.key))
		} else {
			// Zero-copy handoff: the key conversion is a fresh allocation
			// and op.value is owned by this batch (copied at enqueue) and
			// never mutated after Apply, so the engine may retain both.
			pb.PutNoCopy([]byte(op.key), op.value)
		}
	}
	if db.indexes == nil {
		return db.primary.ApplyAt(&pb, 0)
	}

	firstSeq := db.primary.LastSeq() + 1
	var buf [4]attrSlot
	slots := attrSlots(&buf, len(db.opts.Attrs))
	// indexOps maintains the indexes for ops[from:to].
	indexOps := func(from, to int) error {
		for i := from; i < to; i++ {
			op := b.ops[i]
			doc := op.value
			if op.del {
				if doc = oldDocs[i]; doc == nil {
					continue // nothing was indexed for this key
				}
			}
			if err := db.indexWrite(op.key, doc, slots, firstSeq+uint64(i), op.del); err != nil {
				return err
			}
		}
		return nil
	}
	before := 0
	for before < len(b.ops) && !b.ops[before].del {
		before++
	}
	err := indexOps(0, before)
	if err == nil {
		if db.testBetweenWrites != nil {
			db.testBetweenWrites()
		}
		err = db.primary.ApplyAt(&pb, firstSeq)
	}
	if err != nil {
		db.primary.AdvanceSeq(firstSeq + uint64(len(b.ops)) - 1) // an index table may hold these seqs already
		return err
	}
	return indexOps(before, len(b.ops))
}

// Scan iterates the primary table over [lo, hi] (inclusive; empty hi
// means unbounded) in key order, visiting only the newest live version of
// each key — LevelDB's range query API, which the paper's Eager
// RANGELOOKUP builds on. fn returning false stops the scan.
func (db *DB) Scan(lo, hi string, fn func(key string, value []byte) bool) error {
	var hiExcl []byte
	if hi != "" {
		hiExcl = upperBoundExclusive(hi)
	}
	return db.primary.Scan([]byte(lo), hiExcl, func(k, v []byte, _ uint64) bool {
		return fn(string(k), v)
	})
}
