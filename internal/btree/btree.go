// Package btree implements an in-memory B-tree keyed by string.
//
// LevelDB++ uses it as the MemTable-side secondary index for the Embedded
// index (paper §3): while SSTables carry per-block bloom filters and zone
// maps, data still in the MemTable is indexed with "an in-memory B-tree on
// the secondary attribute(s)".
//
// Each tree key is a secondary attribute value; the associated value is an
// ordered set of postings (primary key + sequence number). Every node also
// records the highest sequence number below it, so a top-K walk skips the
// subtrees too old to matter (DescendRangeAbove). The tree is not safe for
// concurrent mutation; the engine serializes writers and guards readers
// with its memtable swap lock.
package btree

import (
	"sort"
	"strings"
)

// Posting records that the row with primary key Key was written with
// sequence number Seq while carrying the indexed attribute value.
type Posting struct {
	Key []byte
	Seq uint64
}

const degree = 32 // max children per node; max items = 2*degree-1

type item struct {
	key      string
	postings []Posting
}

type node struct {
	items    []item
	children []*node // empty for leaves
	maxSeq   uint64  // highest posting seq in the subtree
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// Tree is a B-tree from attribute value to posting list. The zero value is
// not usable; call New.
type Tree struct {
	root *node
}

// New returns an empty tree.
func New() *Tree { return &Tree{root: &node{}} }

// search returns the index of the first item >= key and whether it is an
// exact match.
func (n *node) search(key string) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
	return i, i < len(n.items) && n.items[i].key == key
}

// Add appends a posting to the list for key, creating the key if absent.
// Postings arrive in increasing sequence order (the engine assigns
// monotonically increasing sequence numbers), so lists stay time-ordered.
// A new key is stored as a copy, so key may be a view of bytes the caller
// goes on to change.
func (t *Tree) Add(key string, p Posting) {
	// The posting lands below every node on key's path, whether key is
	// found there or inserted: a split recomputes the nodes it divides.
	for n := t.root; ; {
		n.maxSeq = max(n.maxSeq, p.Seq)
		i, ok := n.search(key)
		if ok {
			n.items[i].postings = append(n.items[i].postings, p)
			return
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	if len(t.root.items) >= 2*degree-1 {
		old := t.root
		t.root = &node{children: []*node{old}, maxSeq: old.maxSeq}
		t.root.splitChild(0)
	}
	t.insertNonFull(t.root, item{key: strings.Clone(key), postings: []Posting{p}})
}

func (t *Tree) find(n *node, key string) *item {
	for {
		i, ok := n.search(key)
		if ok {
			return &n.items[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Get returns the postings recorded for key, newest last, or nil.
func (t *Tree) Get(key string) []Posting {
	if it := t.find(t.root, key); it != nil {
		return it.postings
	}
	return nil
}

func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := degree - 1
	up := child.items[mid]
	right := &node{items: append([]item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[degree:]...)
		child.children = child.children[:degree]
	}
	child.items = child.items[:mid]
	child.maxSeq, right.maxSeq = child.subtreeMax(), right.subtreeMax()

	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = up
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// subtreeMax computes n's maxSeq from its items and children.
func (n *node) subtreeMax() uint64 {
	var m uint64
	for _, it := range n.items {
		m = max(m, it.postings[len(it.postings)-1].Seq)
	}
	for _, c := range n.children {
		m = max(m, c.maxSeq)
	}
	return m
}

func (t *Tree) insertNonFull(n *node, it item) {
	seq := it.postings[0].Seq
	for {
		n.maxSeq = max(n.maxSeq, seq)
		i, ok := n.search(it.key)
		if ok {
			panic("btree: insertNonFull on existing key")
		}
		if n.leaf() {
			n.items = append(n.items, item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = it
			return
		}
		if len(n.children[i].items) >= 2*degree-1 {
			n.splitChild(i)
			if it.key > n.items[i].key {
				i++
			}
		}
		n = n.children[i]
	}
}

// AscendRange calls fn for every key in the inclusive range [lo, hi] in
// ascending order, stopping early if fn returns false.
func (t *Tree) AscendRange(lo, hi string, fn func(key string, postings []Posting) bool) {
	if hi < lo {
		return
	}
	t.ascend(t.root, lo, &hi, fn)
}

func (t *Tree) ascend(n *node, lo string, hi *string, fn func(string, []Posting) bool) bool {
	i, _ := n.search(lo)
	for ; i < len(n.items); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if hi != nil && n.items[i].key > *hi {
			return true
		}
		if !fn(n.items[i].key, n.items[i].postings) {
			return false
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[len(n.items)], lo, hi, fn)
	}
	return true
}

// DescendRangeAbove calls fn for every key in the inclusive range [lo, hi]
// in descending order whose postings hold one with a sequence number above
// floor, and skips every subtree whose postings are all at or below it. fn
// returns the floor for the rest of the walk, which only rises: a top-K
// selection raises it to the oldest posting it keeps once it is full, and
// math.MaxUint64 ends the walk. Where keys rise with sequence numbers, as
// creation times do, the newest keys come first and the walk costs about
// K keys and a path per subtree skipped, whatever the range holds.
func (t *Tree) DescendRangeAbove(lo, hi string, floor uint64, fn func(key string, postings []Posting) uint64) {
	if hi < lo {
		return
	}
	t.root.descend(lo, hi, &floor, fn)
}

func (n *node) descend(lo, hi string, floor *uint64, fn func(string, []Posting) uint64) {
	if n.maxSeq <= *floor {
		return
	}
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key > hi })
	for {
		if !n.leaf() {
			n.children[i].descend(lo, hi, floor, fn)
		}
		if i == 0 {
			return
		}
		i--
		it := &n.items[i]
		if it.key < lo {
			return
		}
		if ps := it.postings; ps[len(ps)-1].Seq > *floor {
			*floor = max(*floor, fn(it.key, ps))
		}
	}
}
