// Package postings implements the posting lists used by the Stand-Alone
// Eager and Lazy indexes (paper §4.1): for each secondary attribute
// value, an index table stores the list of primary keys carrying that
// value, newest first, each entry stamped with the write's sequence
// number ("we attach a sequence number to each entry in the postings list
// on every write").
//
// Two on-disk encodings are read (DESIGN.md §5.6):
//
//   - v1, the seed format: a single JSON array of {k, s, d} objects.
//   - v2: a magic byte followed by varint-encoded entries with
//     delta-encoded sequence numbers and length-prefixed keys, decodable
//     in place via Cursor without materializing a []Entry slice.
//
// Readers sniff the leading byte, so lists of either format — and mixed
// v1/v2 fragments inside one merge — are always readable. Every writer
// emits v2: v1 lists come only from databases written by the seed.
//
// The streaming k-way merge of encoded fragments, which flush, compaction
// and LOOKUP share, is internal/core's fragmentHeap, built on this
// package's Cursor, KeySet and AppendEntry.
//
// In either format a well-formed list is newest first: its sequence
// numbers never rise. Every writer, the seed's included, emits that
// order, and Cursor.Prime rejects a list that breaks it with ErrCorrupt,
// as it rejects a truncated one. Decode and the reference Merge take any
// order.
//
// Lazy-index deletions are represented as in the paper: "DEL ... maintains
// a deletion marker which is used during merge in compaction to remove the
// deleted entry."
package postings

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Entry is one posting: a primary key, the sequence number of the write
// that produced it, and an optional deletion marker.
type Entry struct {
	Key string `json:"k"`
	Seq uint64 `json:"s"`
	Del bool   `json:"d,omitempty"`
}

// List is a posting list ordered newest (highest Seq) first.
type List []Entry

// Decode parses a serialized posting list of either format.
func Decode(data []byte) (List, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if data[0] == MagicV2 {
		return decodeV2(data)
	}
	var l List
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("postings: decode: %w", err)
	}
	return l, nil
}

// Merge combines decoded fragments ordered newest-fragment-first into one
// list: per primary key only the newest entry survives, and when
// dropDeleted is true (bottom-level compaction) surviving deletion markers
// are removed. The result is ordered newest first. It is the reference
// for the streaming merge over encoded fragments in internal/core.
func Merge(fragments []List, dropDeleted bool) List {
	newest := map[string]Entry{}
	for _, frag := range fragments {
		for _, e := range frag {
			if cur, ok := newest[e.Key]; !ok || e.Seq > cur.Seq {
				newest[e.Key] = e
			}
		}
	}
	out := make(List, 0, len(newest))
	for _, e := range newest {
		if dropDeleted && e.Del {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}
