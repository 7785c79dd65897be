package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"leveldbpp/internal/workload"
)

// Result digests. The measured loop folds each operation's result into one
// number; the model folds what it expects the same way, so a run keeps
// eight bytes per operation and nothing else.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes a key or a value.
func fnv1a[T ~string | ~[]byte](b T) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// entryDigest extends a LOOKUP/RANGELOOKUP digest by one result.
func entryDigest(h uint64, key string, value []byte) uint64 {
	return mix(mix(h, fnv1a(key)), fnv1a(value))
}

// model is the reference the engine's answers are checked against: key →
// latest document, attribute value → keys in write order. It holds no
// pointers: the collector runs a hundred times a second under these
// workloads, and a model it had to scan would slow the engine it checks.
type model struct {
	docs   map[uint64]modelDoc // by key ordinal
	byUser map[int64][]ref     // by user ordinal, in write order
	byTime []timeRef           // in write order, which is time order
	seq    uint64

	liveBytes int64 // key+value bytes of the latest version of every key
}

type modelDoc struct {
	seq       uint64
	keyHash   uint64
	valueHash uint64
	size      int
}

type ref struct{ key, seq uint64 }

type timeRef struct {
	sec int64
	ref
}

func newModel() *model {
	return &model{docs: map[uint64]modelDoc{}, byUser: map[int64][]ref{}}
}

// attrOrdinal maps an attribute value ("u0000042", "0000001234") to the
// integer whose order is the value's byte order.
func attrOrdinal(v string) (int64, error) {
	return strconv.ParseInt(strings.TrimPrefix(v, "u"), 10, 64)
}

// keyOrdinal maps a primary key ("t0000000042", "b-t0000000042") to a number.
func keyOrdinal(key string) (uint64, error) {
	prefix, num, ok := strings.Cut(key, "t")
	n, err := strconv.ParseUint(num, 10, 40)
	if !ok || err != nil || len(prefix) > 2 {
		return 0, fmt.Errorf("model: malformed key %q", key)
	}
	if prefix != "" {
		n |= uint64(prefix[0]) << 40
	}
	return n, nil
}

// put applies a PUT or UPDATE.
func (m *model) put(key string, value []byte) error {
	var doc struct{ UserID, CreationTime string }
	if err := json.Unmarshal(value, &doc); err != nil {
		return fmt.Errorf("model: document of %s: %w", key, err)
	}
	id, err := keyOrdinal(key)
	if err != nil {
		return err
	}
	user, err := attrOrdinal(doc.UserID)
	if err != nil {
		return fmt.Errorf("model: UserID of %s: %w", key, err)
	}
	sec, err := attrOrdinal(doc.CreationTime)
	if err != nil {
		return fmt.Errorf("model: CreationTime of %s: %w", key, err)
	}
	if n := len(m.byTime); n > 0 && m.byTime[n-1].sec > sec {
		return fmt.Errorf("model: CreationTime of %s runs backwards", key)
	}
	m.seq++
	if old, ok := m.docs[id]; ok {
		m.liveBytes -= int64(old.size)
	}
	size := len(key) + len(value)
	m.liveBytes += int64(size)
	m.docs[id] = modelDoc{seq: m.seq, keyHash: fnv1a(key), valueHash: fnv1a(value), size: size}
	m.byUser[user] = append(m.byUser[user], ref{id, m.seq})
	m.byTime = append(m.byTime, timeRef{sec, ref{id, m.seq}})
	return nil
}

// valid reports whether r is still the latest write of its key.
func (m *model) valid(r ref) bool { return m.docs[r.key].seq == r.seq }

// expect returns the digest a correct engine produces for a read.
func (m *model) expect(op *workload.Op) (uint64, error) {
	if op.Kind == workload.OpGet {
		id, err := keyOrdinal(op.Key)
		if err != nil {
			return 0, err
		}
		d, ok := m.docs[id]
		if !ok {
			return 0, fmt.Errorf("model: GET of unknown key %s", op.Key)
		}
		return d.valueHash, nil
	}
	lo, err := attrOrdinal(op.Lo)
	if err != nil {
		return 0, err
	}
	hi, err := attrOrdinal(op.Hi)
	if err != nil {
		return 0, err
	}
	var newest []ref // the K newest valid entries, newest first
	if op.Attr == workload.AttrTime {
		end := sort.Search(len(m.byTime), func(i int) bool { return m.byTime[i].sec > hi })
		for i := end - 1; i >= 0 && m.byTime[i].sec >= lo && len(newest) < op.K; i-- {
			if m.valid(m.byTime[i].ref) {
				newest = append(newest, m.byTime[i].ref)
			}
		}
	} else {
		// The K newest of the whole range are among the K newest of each
		// user in it.
		for u := lo; u <= hi; u++ {
			refs := m.byUser[u]
			for i, taken := len(refs)-1, 0; i >= 0 && taken < op.K; i-- {
				if m.valid(refs[i]) {
					newest = append(newest, refs[i])
					taken++
				}
			}
		}
		sort.Slice(newest, func(i, j int) bool { return newest[i].seq > newest[j].seq })
		newest = newest[:min(len(newest), op.K)]
	}
	h := uint64(fnvOffset)
	for _, r := range newest {
		d := m.docs[r.key]
		h = mix(mix(h, d.keyHash), d.valueHash)
	}
	return h, nil
}

// wireEntry is one LOOKUP/RANGELOOKUP result as the HTTP server sends it.
type wireEntry struct {
	Key   string `json:"key"`
	Value struct{ UserID, CreationTime string }
	Seq   uint64 `json:"seq"`
}

// checkInvariants is what can be said of a query result while another
// client writes: at most K entries, every entry's attribute inside the
// asked range, newest first.
func checkInvariants(op *workload.Op, entries []wireEntry) error {
	if len(entries) > op.K {
		return fmt.Errorf("%d results for K=%d", len(entries), op.K)
	}
	for i, e := range entries {
		v := e.Value.UserID
		if op.Attr == workload.AttrTime {
			v = e.Value.CreationTime
		}
		if v < op.Lo || v > op.Hi {
			return fmt.Errorf("result %s has %s=%s outside [%s,%s]", e.Key, op.Attr, v, op.Lo, op.Hi)
		}
		if i > 0 && e.Seq >= entries[i-1].Seq {
			return fmt.Errorf("result %s breaks newest-first order", e.Key)
		}
	}
	return nil
}
