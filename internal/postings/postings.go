// Package postings implements the posting lists used by the Stand-Alone
// Eager and Lazy indexes (paper §4.1): for each secondary attribute
// value, an index table stores the list of primary keys carrying that
// value, newest first, each entry stamped with the write's sequence
// number ("we attach a sequence number to each entry in the postings list
// on every write").
//
// Two on-disk encodings coexist (DESIGN.md §5.6):
//
//   - v1, the seed format: a single JSON array of {k, s, d} objects.
//   - v2: a magic byte followed by varint-encoded entries with
//     delta-encoded sequence numbers and length-prefixed keys, decodable
//     in place via Cursor without materializing a []Entry slice.
//
// Readers sniff the leading byte, so lists of either format — and mixed
// v1/v2 fragments inside one merge — are always readable. Writers pick
// the output encoding through Format.
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

// Format selects the posting-list encoding written by the index write
// paths. Decoders never need it: they sniff the leading byte.
type Format uint8

// The posting-list formats.
const (
	// FormatUnset resolves to FormatV2 (the default).
	FormatUnset Format = iota
	// FormatV1 is the seed's JSON-array encoding, kept as an escape
	// hatch and for byte-compatibility ablations.
	FormatV1
	// FormatV2 is the binary varint/delta encoding (DESIGN.md §5.6).
	FormatV2
)

// OrDefault resolves FormatUnset to the default format (v2).
func (f Format) OrDefault() Format {
	if f == FormatUnset {
		return FormatV2
	}
	return f
}

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	case FormatUnset:
		return "unset"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat parses the -postings-format flag value. The empty string
// and "v2" select the default binary format; "v1" the seed JSON format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "v2":
		return FormatV2, nil
	case "v1":
		return FormatV1, nil
	default:
		return FormatUnset, fmt.Errorf("postings: unknown format %q (want v1 or v2)", s)
	}
}

// Encode serializes the list in the v1 JSON encoding — the paper's
// representation ("Posting lists can be serialized as a single JSON
// array"). Use EncodeFormat to select the encoding.
func Encode(l List) []byte {
	if len(l) == 0 {
		return []byte("[]")
	}
	data, err := json.Marshal(l)
	if err != nil {
		// A List of plain structs cannot fail to marshal.
		panic(fmt.Sprintf("postings: marshal: %v", err))
	}
	return data
}

// EncodeFormat serializes the list in the requested format.
func EncodeFormat(l List, f Format) []byte {
	if f.OrDefault() == FormatV1 {
		return Encode(l)
	}
	return AppendList(nil, l)
}

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

// Single returns an encoded one-entry v1 list — the fragment a Lazy-index
// PUT writes under FormatV1. AppendSingle is the allocation-free v2
// equivalent.
func Single(key string, seq uint64, del bool) []byte {
	return Encode(List{{Key: key, Seq: seq, Del: del}})
}

// Merge combines decoded fragments ordered newest-fragment-first into one
// list: per primary key only the newest entry survives, and when
// dropDeleted is true (bottom-level compaction) surviving deletion markers
// are removed. The result is ordered newest first. MergeStreams performs
// the same merge directly over encoded fragments.
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

// Add prepends a new posting for key with seq, superseding any existing
// entry for the same primary key — the Eager index's read-modify-write
// step. The input's newest-first order is preserved without re-sorting;
// AppendAdd performs the same update directly on encoded bytes.
func Add(l List, key string, seq uint64, del bool) List {
	out := make(List, 0, len(l)+1)
	out = append(out, Entry{Key: key, Seq: seq, Del: del})
	for _, e := range l {
		if e.Key != key {
			out = append(out, e)
		}
	}
	return out
}
