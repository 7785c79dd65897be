package lsm

import (
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/wal"
)

// Batch collects writes that commit atomically: all operations share one
// WAL frame, so after a crash either every operation replays or none
// does, and readers never observe a prefix (operations apply under the
// writer lock).
type Batch struct {
	records []wal.Record
}

// PutNoCopy queues key → value without copying either buffer: the batch
// borrows them, so neither may change until ApplyAt returns. The WAL
// frame and the MemTable's arena copy are made from them; afterwards the
// caller may reuse both.
//
//lsm:aliasok — the batch borrows the buffers; see the contract above.
func (b *Batch) PutNoCopy(key, value []byte) {
	b.records = append(b.records, wal.Record{
		Kind:  byte(ikey.KindSet),
		Key:   key,
		Value: value,
	})
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.records = append(b.records, wal.Record{
		Kind: byte(ikey.KindDelete),
		Key:  append([]byte(nil), key...),
	})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.records) }

// ApplyAt commits the batch with its first operation at sequence number
// seq, under PutAt's rule (operation i gets seq+i); seq 0 takes the next
// one. Within the batch, later operations shadow earlier ones on the same
// key (they receive higher sequence numbers). The MemTable flush check
// runs once, after the whole batch. It records the write-path phases
// (wal, mem_insert, rotate, commit_wait) into tr, which may be nil.
func (db *DB) ApplyAt(b *Batch, seq uint64, tr *metrics.Trace) error {
	if b.Len() == 0 {
		return nil
	}
	pc := pendingPool.Get().(*pendingCommit)
	pc.records, pc.tr = b.records, tr
	b.records[0].Seq = seq
	return db.commit(pc)
}
