// Package skiplist provides the ordered in-memory structure backing the
// LSM MemTable (paper Appendix A.1, component C0).
//
// Layout. As in LevelDB's arena skip list (util/arena.cc, db/skiplist.h),
// a List keeps its records in an arena of its own rather than in heap
// objects per record. Insert copies a record's key and its value into
// append-only byte pages, keys and values filling pages of their own so
// that a search reads densely packed keys; a key or value of more than a
// quarter page gets a page to itself. The record's header — where its key
// lies (byte page, offset, length) with its tower height, and where its
// value lies — and its tower of next links go into pages of atomic.Uint32
// words. A node is the uint32 index of its header in those link pages,
// and 0 is nil: the head's tower lives in the List. Nothing per record
// holds a Go pointer, so the garbage collector sees a few pages per list,
// and a step of a walk reads one header and the key bytes it points at.
//
// Concurrency. The list follows LevelDB's contract: inserts must be
// serialized externally (the engine holds its writer mutex), while readers
// traverse concurrently with an in-flight insert without locks. An insert
// writes the record's bytes and header before it links the node with
// atomic stores, and a page is published in the page directory (an
// atomic.Pointer) before any link points into it. A reader loads the
// directory once per search or iterator and reloads it only on meeting a
// page added since: the link it followed orders that reload after the
// page's publication. Nodes are immutable once linked. An empty list holds
// no page.
package skiplist

import "sync/atomic"

const (
	maxHeight = 12

	// dataPageBytes is the size of a byte page. A key or value of more
	// than a quarter page gets a page of its own, so the tail a full page
	// leaves unused is under a quarter of it.
	dataPageBytes = 16 << 10

	// A link page holds 1<<linkShift words. A node index is its link
	// page's number above linkShift bits and its header's word offset
	// below.
	linkShift     = 11
	linkPageWords = 1 << linkShift
	linkMask      = linkPageWords - 1

	// A node's header words; its tower of next links follows them.
	hdrRef     = 0 // the key's byte page << heightBits | tower height
	hdrOff     = 1 // the key's offset in its page
	hdrKeyLen  = 2
	hdrVal     = 3 // the value's byte page
	hdrValOff  = 4
	hdrValLen  = 5
	hdrWords   = 6
	heightBits = 4
	heightMask = 1<<heightBits - 1
)

// Compare is a three-way key comparator: negative if a<b, zero if equal,
// positive if a>b.
type Compare func(a, b []byte) int

type linkPage [linkPageWords]atomic.Uint32

// pages is a published snapshot of the page directory. Pages are only
// appended: a snapshot's pages keep their contents as later inserts add
// records and pages.
type pages struct {
	links []*linkPage
	data  [][]byte
}

// noPages is the directory of an empty list.
var noPages pages

// List is an ordered map from byte-slice keys to byte-slice values.
// Keys must be unique; Insert panics on duplicates (the LSM engine never
// produces duplicate internal keys because each write gets a fresh
// sequence number).
type List struct {
	cmp    Compare
	head   [maxHeight]atomic.Uint32 // the head's tower
	height atomic.Int32
	bytes  atomic.Int64
	count  atomic.Int64
	pages  atomic.Pointer[pages]

	// The insert side's state: the directory's newest contents, the words
	// used in the last link page, the byte pages being filled with keys
	// and with values, and the height generator.
	links      []*linkPage
	data       [][]byte
	linkUsed   int
	keys, vals fill
	rnd        uint64
}

// fill is a byte page being filled: its number in the directory and the
// bytes used. cur is nil before the first.
type fill struct {
	cur  []byte
	page uint32
	used int
}

// New returns an empty list ordered by cmp.
func New(cmp Compare) *List {
	l := &List{cmp: cmp, rnd: 0xdecafbad}
	l.height.Store(1)
	l.pages.Store(&noPages)
	return l
}

// ApproximateMemoryUsage returns the total bytes of keys and values stored,
// used by the engine to decide when to flush the MemTable. Headers, links
// and the unused tails of pages are not counted.
func (l *List) ApproximateMemoryUsage() int64 { return l.bytes.Load() }

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

// randomHeight draws a tower height: one more level with probability 1/4
// per level, as in LevelDB, from an xorshift64* stream held in the List
// (a math/rand source would be a 5 KiB allocation per MemTable).
func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight {
		l.rnd ^= l.rnd >> 12
		l.rnd ^= l.rnd << 25
		l.rnd ^= l.rnd >> 27
		if (l.rnd*2685821657736338717)>>62 != 0 {
			break
		}
		h++
	}
	return h
}

// view is a reader's snapshot of l's page directory, reloaded when a link
// leads past it.
type view struct {
	l *List
	p *pages
}

func (l *List) view() view { return view{l, l.pages.Load()} }

// node returns the link page holding node x and the offset of its header.
func (v *view) node(x uint32) (*linkPage, uint32) {
	n := int(x >> linkShift)
	if n >= len(v.p.links) {
		v.p = v.l.pages.Load()
	}
	return v.p.links[n], x & linkMask
}

// page returns byte page n.
func (v *view) page(n uint32) []byte {
	if int(n) >= len(v.p.data) {
		v.p = v.l.pages.Load()
	}
	return v.p.data[n]
}

// entry returns node x's tower and key: what a search step reads.
func (v *view) entry(x uint32) (tower []atomic.Uint32, key []byte) {
	pg, o := v.node(x)
	ref, off, n := pg[o+hdrRef].Load(), pg[o+hdrOff].Load(), pg[o+hdrKeyLen].Load()
	t := o + hdrWords
	return pg[t : t+ref&heightMask], v.page(ref >> heightBits)[off : off+n : off+n]
}

// key returns node x's key, capped at its end so that an append to it
// cannot overwrite the bytes behind it.
func (v *view) key(x uint32) []byte {
	pg, o := v.node(x)
	ref, off, n := pg[o+hdrRef].Load(), pg[o+hdrOff].Load(), pg[o+hdrKeyLen].Load()
	return v.page(ref >> heightBits)[off : off+n : off+n]
}

// value returns node x's value, capped at its end.
func (v *view) value(x uint32) []byte {
	pg, o := v.node(x)
	n, off := pg[o+hdrVal].Load(), pg[o+hdrValOff].Load()
	end := off + pg[o+hdrValLen].Load()
	return v.page(n)[off:end:end]
}

// findGE returns the first node with key >= target, filling prev with the
// predecessor at every level (0 for the head) when prev is non-nil.
//
//lsm:hotpath
func (l *List) findGE(v *view, key []byte, prev *[maxHeight]uint32) uint32 {
	links, data := v.p.links, v.p.data
	var x, ge uint32 // ge: a node already found >= key, 0 for none
	tower := l.head[:]
	level := int(l.height.Load()) - 1
	for {
		next := tower[level].Load()
		if next != 0 && next != ge {
			if int(next>>linkShift) >= len(links) {
				v.p = l.pages.Load()
				links, data = v.p.links, v.p.data
			}
			pg, o := links[next>>linkShift], next&linkMask
			ref, off, n := pg[o+hdrRef].Load(), pg[o+hdrOff].Load(), pg[o+hdrKeyLen].Load()
			if int(ref>>heightBits) >= len(data) {
				v.p = l.pages.Load()
				links, data = v.p.links, v.p.data
			}
			if l.cmp(data[ref>>heightBits][off:off+n:off+n], key) < 0 {
				x, tower = next, pg[o+hdrWords:o+hdrWords+ref&heightMask]
				continue
			}
		}
		ge = next
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// Insert adds a key/value pair, copying both into the list's arena. The
// caller must serialize Insert calls.
func (l *List) Insert(key, value []byte) { l.InsertParts(key, nil, value) }

// InsertParts adds the entry whose key is head followed by tail — say a
// user key and the trailer of an internal key — copying the key and value
// straight into the list's arena, and returns the arena's copies, each
// capped at its end. The caller must serialize inserts.
func (l *List) InsertParts(head, tail, value []byte) (key, val []byte) {
	kl := len(head) + len(tail)
	page, off, key := l.alloc(&l.keys, kl)
	copy(key, head)
	copy(key[len(head):], tail)
	// An empty value lies at the key's end: it takes no page.
	vpage, voff, val := page, off+uint32(kl), key[kl:]
	if len(value) > 0 {
		vpage, voff, val = l.alloc(&l.vals, len(value))
		copy(val, value)
	}

	v := l.view()
	var prev [maxHeight]uint32
	if next := l.findGE(&v, key, &prev); next != 0 && l.cmp(v.key(next), key) == 0 {
		panic("skiplist: duplicate key insert")
	}
	h := l.randomHeight()
	if h > int(l.height.Load()) {
		// prev is the head (0) above the old height. Publishing a larger
		// height before linking is safe: readers that observe it see nil
		// links from the head and drop down.
		l.height.Store(int32(h))
	}

	x := l.allocNode(h)
	pg, o := l.links[x>>linkShift], x&linkMask
	pg[o+hdrRef].Store(page<<heightBits | uint32(h))
	pg[o+hdrOff].Store(off)
	pg[o+hdrKeyLen].Store(uint32(kl))
	pg[o+hdrVal].Store(vpage)
	pg[o+hdrValOff].Store(voff)
	pg[o+hdrValLen].Store(uint32(len(value)))
	for i := 0; i < h; i++ {
		link := &l.head[i]
		if p := prev[i]; p != 0 {
			link = &l.links[p>>linkShift][p&linkMask+hdrWords+uint32(i)]
		}
		pg[o+hdrWords+uint32(i)].Store(link.Load())
		link.Store(x)
	}
	l.bytes.Add(int64(kl + len(value)))
	l.count.Add(1)
	return key, val
}

// alloc returns n bytes of arena from f's pages, capped at their end: the
// byte page they lie on, their offset there, and the bytes.
func (l *List) alloc(f *fill, n int) (page, off uint32, buf []byte) {
	if n > dataPageBytes/4 {
		buf = make([]byte, n)
		l.data = append(l.data, buf)
		l.publish()
		return uint32(len(l.data) - 1), 0, buf
	}
	if f.cur == nil || f.used+n > len(f.cur) {
		f.cur = make([]byte, dataPageBytes)
		l.data = append(l.data, f.cur)
		f.page, f.used = uint32(len(l.data)-1), 0
		l.publish()
	}
	start := f.used
	f.used += n
	return f.page, uint32(start), f.cur[start:f.used:f.used]
}

// allocNode reserves the header and a tower of height h and returns the
// node's index. Index 0, the first word of the first page, stays unused:
// it is nil.
func (l *List) allocNode(h int) uint32 {
	need := hdrWords + h
	if len(l.links) == 0 || l.linkUsed+need > linkPageWords {
		l.links = append(l.links, new(linkPage))
		l.linkUsed = 0
		if len(l.links) == 1 {
			l.linkUsed = 1
		}
		l.publish()
	}
	x := uint32(len(l.links)-1)<<linkShift | uint32(l.linkUsed)
	l.linkUsed += need
	return x
}

// publish hands readers the directory's newest contents. A snapshot shares
// its arrays with later ones, but later appends only write past its length.
func (l *List) publish() { l.pages.Store(&pages{links: l.links, data: l.data}) }

// Iterator walks the list in key order. It is valid to create iterators
// concurrently with inserts; an iterator observes a consistent prefix of
// the insert history. An Iterator may be copied by value; the copy walks
// on its own.
type Iterator struct {
	v    view
	node uint32
}

// NewIterator returns an unpositioned iterator; call SeekToFirst or SeekGE.
func (l *List) NewIterator() *Iterator { return &Iterator{v: l.view()} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.node != 0 }

// Key returns the current key; only valid when Valid(). The slice is
// capped at the key's end.
func (it *Iterator) Key() []byte { return it.v.key(it.node) }

// Value returns the current value; only valid when Valid(). The slice is
// capped at the value's end.
func (it *Iterator) Value() []byte { return it.v.value(it.node) }

// Next advances to the following entry.
//
//lsm:hotpath
func (it *Iterator) Next() {
	pg, o := it.v.node(it.node)
	it.node = pg[o+hdrWords].Load()
}

// SeekToFirst positions at the smallest entry.
func (it *Iterator) SeekToFirst() { it.node = it.v.l.head[0].Load() }

// SeekGE positions at the first entry with key >= target.
//
//lsm:hotpath
func (it *Iterator) SeekGE(key []byte) { it.node = it.v.l.findGE(&it.v, key, nil) }

// SeekForward positions at the first entry with key >= target, searching
// forward from the current entry, whose key must be below target. Each
// step climbs to the top level of the node it reaches, so a short hop
// costs a few link loads rather than a descent from the head.
//
//lsm:hotpath
func (it *Iterator) SeekForward(target []byte) {
	tower, _ := it.v.entry(it.node)
	level := len(tower) - 1
	for {
		next := tower[level].Load()
		if next != 0 {
			if t, k := it.v.entry(next); it.v.l.cmp(k, target) < 0 {
				tower, level = t, len(t)-1
				continue
			}
		}
		if level == 0 {
			it.node = next
			return
		}
		level--
	}
}
