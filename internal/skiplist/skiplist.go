// Package skiplist provides the ordered in-memory structure backing the
// LSM MemTable (paper Appendix A.1, component C0).
//
// The list follows LevelDB's concurrency contract: inserts must be
// serialized externally (the engine holds its writer mutex), while readers
// may traverse concurrently with an in-flight insert without locks, because
// next-pointers are published atomically and nodes are immutable after
// linking.
package skiplist

import (
	"math/rand"
	"sync/atomic"
)

const maxHeight = 12

// Compare is a three-way key comparator: negative if a<b, zero if equal,
// positive if a>b.
type Compare func(a, b []byte) int

type node struct {
	key   []byte
	value []byte
	next  []atomic.Pointer[node]
}

// List is an ordered map from byte-slice keys to byte-slice values.
// Keys must be unique; Insert panics on duplicates (the LSM engine never
// produces duplicate internal keys because each write gets a fresh
// sequence number).
type List struct {
	cmp    Compare
	head   *node
	height atomic.Int32
	rnd    *rand.Rand
	bytes  atomic.Int64
	count  atomic.Int64
}

// New returns an empty list ordered by cmp.
func New(cmp Compare) *List {
	head := &node{next: make([]atomic.Pointer[node], maxHeight)}
	l := &List{cmp: cmp, head: head, rnd: rand.New(rand.NewSource(0xdecafbad))}
	l.height.Store(1)
	return l
}

// ApproximateMemoryUsage returns the total bytes of keys and values stored,
// used by the engine to decide when to flush the MemTable.
func (l *List) ApproximateMemoryUsage() int64 { return l.bytes.Load() }

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

func (l *List) randomHeight() int {
	// Increase height with probability 1/4 per level, as in LevelDB.
	h := 1
	for h < maxHeight && l.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= target, filling prev with the
// predecessor at every level when prev is non-nil.
//
//lsm:hotpath
func (l *List) findGE(key []byte, prev *[maxHeight]*node) *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, key) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// Insert adds a key/value pair. The caller must serialize Insert calls.
func (l *List) Insert(key, value []byte) {
	var prev [maxHeight]*node
	next := l.findGE(key, &prev)
	if next != nil && l.cmp(next.key, key) == 0 {
		panic("skiplist: duplicate key insert")
	}

	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = l.head
		}
		// Publishing a larger height before linking is safe: readers that
		// observe the new height see nil pointers from head and drop down.
		l.height.Store(int32(h))
	}

	n := &node{key: key, value: value, next: make([]atomic.Pointer[node], h)}
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n)
	}
	l.bytes.Add(int64(len(key) + len(value)))
	l.count.Add(1)
}

// Get returns the value stored at exactly key.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGE(key, nil)
	if n != nil && l.cmp(n.key, key) == 0 {
		return n.value, true
	}
	return nil, false
}

// Iterator walks the list in key order. It is valid to create iterators
// concurrently with inserts; an iterator observes a consistent prefix of
// the insert history.
type Iterator struct {
	list *List
	node *node
}

// NewIterator returns an unpositioned iterator; call SeekToFirst or SeekGE.
func (l *List) NewIterator() *Iterator { return &Iterator{list: l} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.node != nil }

// Key returns the current key; only valid when Valid().
func (it *Iterator) Key() []byte { return it.node.key }

// Value returns the current value; only valid when Valid().
func (it *Iterator) Value() []byte { return it.node.value }

// Next advances to the following entry.
//
//lsm:hotpath
func (it *Iterator) Next() { it.node = it.node.next[0].Load() }

// SeekToFirst positions at the smallest entry.
func (it *Iterator) SeekToFirst() { it.node = it.list.head.next[0].Load() }

// SeekGE positions at the first entry with key >= target.
//
//lsm:hotpath
func (it *Iterator) SeekGE(key []byte) { it.node = it.list.findGE(key, nil) }

// SeekForward positions at the first entry with key >= target, searching
// forward from the current entry, whose key must be below target. Each
// step climbs to the top level of the node it reaches, so a short hop
// costs a few pointer loads rather than a descent from the head.
//
//lsm:hotpath
func (it *Iterator) SeekForward(target []byte) {
	x := it.node
	level := len(x.next) - 1
	for {
		next := x.next[level].Load()
		if next != nil && it.list.cmp(next.key, target) < 0 {
			x = next
			level = len(x.next) - 1
			continue
		}
		if level == 0 {
			it.node = next
			return
		}
		level--
	}
}
