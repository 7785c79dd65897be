package core

import (
	"cmp"
	"slices"
)

// topK is the min-heap of Algorithm 1: it retains the K entries with the
// highest sequence numbers (most recent insertions). K <= 0 means
// unbounded (the paper's "no limit on top-k").
type topK struct {
	k int
	h []Entry // min-heap by seq
}

func olderEntry(a, b Entry) bool { return a.Seq < b.Seq }

func newTopK(k int) *topK { return &topK{k: k} }

// Full reports whether K entries have been collected (never true when
// unbounded).
func (t *topK) Full() bool { return t.k > 0 && len(t.h) >= t.k }

// MinSeq returns the smallest retained sequence number (0 when empty).
// A candidate with Seq <= MinSeq cannot improve a full heap.
func (t *topK) MinSeq() uint64 {
	if len(t.h) == 0 {
		return 0
	}
	return t.h[0].Seq
}

// Worth reports whether a candidate with the given sequence number could
// enter the heap — the cheap pre-check performed before paying for a
// validity probe (Algorithm 1 lines 1-2).
func (t *topK) Worth(seq uint64) bool {
	return !t.Full() || seq > t.MinSeq()
}

// Add offers an entry; it is kept if the heap has room or the entry is
// newer than the current minimum.
func (t *topK) Add(e Entry) {
	if t.k <= 0 || len(t.h) < t.k {
		t.h = append(t.h, e)
		siftUp(t.h, len(t.h)-1, olderEntry)
	} else if e.Seq > t.h[0].Seq {
		t.h[0] = e
		siftDown(t.h, 0, olderEntry)
	}
}

// Results returns the retained entries ordered newest first.
func (t *topK) Results() []Entry {
	out := make([]Entry, len(t.h))
	copy(out, t.h)
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(b.Seq, a.Seq) })
	return out
}
