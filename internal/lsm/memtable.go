package lsm

import (
	"bytes"
	"sync"

	"leveldbpp/internal/btree"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
)

// memTable is the in-memory component C0: a skip list over internal keys
// plus, when secondary attributes are indexed, a B-tree from attribute
// value to postings (paper §3: "For lookup in the MemTable, we maintain an
// in-memory B-tree on the secondary attribute(s)").
type memTable struct {
	list   *skiplist.List
	sec    map[string]*btree.Tree // attr name → value → postings
	maxSeq uint64                 // highest sequence number added
	attrs  []sstable.AttrValue    // add's extraction scratch
}

func newMemTable(secondaryAttrs []string) *memTable {
	m := &memTable{list: skiplist.New(ikey.Compare)}
	if len(secondaryAttrs) > 0 {
		m.sec = make(map[string]*btree.Tree, len(secondaryAttrs))
		for _, a := range secondaryAttrs {
			m.sec[a] = btree.New()
		}
	}
	return m
}

// add copies a record into the skip list's arena, its internal key
// written there in place, and maintains the secondary B-trees over the
// arena's copies: the caller may reuse userKey and value once add returns.
func (m *memTable) add(seq uint64, kind ikey.Kind, userKey, value []byte, extract AttrExtractor) {
	var trailer [8]byte
	ik, value := m.list.InsertParts(userKey, ikey.AppendTrailer(trailer[:0], seq, kind), value)
	userKey = ikey.UserKey(ik)
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
	if m.sec != nil && kind == ikey.KindSet && extract != nil {
		m.attrs = extract(m.attrs[:0], userKey, value)
		for _, av := range m.attrs {
			if tree, ok := m.sec[av.Attr]; ok {
				tree.Add(av.Value, btree.Posting{Key: userKey, Seq: seq})
			}
		}
	}
}

// seekKeys holds get's seek-key buffers. The skip list compares through
// a func value, so a key handed to its search escapes: a buffer built per
// probe would be one allocation per MemTable a GET or a validity check
// asks.
var seekKeys = sync.Pool{New: func() any { return new([]byte) }}

// get returns the newest record for userKey: its value, sequence number
// and kind.
func (m *memTable) get(userKey []byte) (value []byte, seq uint64, kind ikey.Kind, ok bool) {
	seek := seekKeys.Get().(*[]byte)
	*seek = ikey.AppendSeek((*seek)[:0], userKey)
	it := m.list.NewIterator()
	it.SeekGE(*seek) // the iterator keeps no reference to the key
	seekKeys.Put(seek)
	if !it.Valid() {
		return nil, 0, 0, false
	}
	k := it.Key()
	if !bytes.Equal(ikey.UserKey(k), userKey) {
		return nil, 0, 0, false
	}
	return it.Value(), ikey.Seq(k), ikey.KindOf(k), true
}

// approximateBytes reports memory used by keys and values.
func (m *memTable) approximateBytes() int64 { return m.list.ApproximateMemoryUsage() }

// empty reports whether any record has been added.
func (m *memTable) empty() bool { return m.list.Len() == 0 }

// iter returns an iterator over the full internal-key order.
func (m *memTable) iter() *skiplist.Iterator { return m.list.NewIterator() }

// secTree returns the secondary B-tree for attr, or nil.
func (m *memTable) secTree(attr string) *btree.Tree {
	if m.sec == nil {
		return nil
	}
	return m.sec[attr]
}
