package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"leveldbpp/internal/workload"
)

// stream builds one client's operations from the run's seed. It sits on
// workload.Generator (tweets) and workload.StaticQueries (query conditions
// drawn from the data distribution). workload.Mixed is not used: its ids
// restart at zero and would collide with the preload.
type stream struct {
	sp     *spec
	prefix string // keeps concurrent clients' keys disjoint
	gen    *workload.Generator
	rng    *rand.Rand
	// written holds every key this stream wrote with its latest attributes,
	// without pointers so that the collector never scans it (see model).
	written []keyInfo
	block   []workload.OpKind
	ranges  int // alternates the user-span and time-span RANGELOOKUP
}

// keyInfo is one key in compact form: "t%010d" and "u%07d" are rebuilt from
// the numbers when a query needs them.
type keyInfo struct {
	num, user int32
	sec       int64
}

func (s *stream) tweet(w keyInfo) workload.Tweet {
	return workload.Tweet{
		ID:       fmt.Sprintf("%st%010d", s.prefix, w.num),
		UserID:   fmt.Sprintf("u%07d", w.user),
		Creation: w.sec,
	}
}

func newStream(sp *spec, seed int64, client int) *stream {
	s := &stream{sp: sp}
	if sp.clients > 1 {
		s.prefix = string(rune('a'+client)) + "-"
	}
	genSeed := seed*1009 + int64(client)
	s.gen = workload.NewGenerator(workload.Config{
		Tweets:              1 << 30, // never exhausted
		Users:               users,
		MeanTweetsPerSecond: 2,
		Seed:                genSeed,
	})
	s.rng = rand.New(rand.NewSource(genSeed ^ 0x5bd1e995))
	for _, share := range []struct {
		kind workload.OpKind
		n    int
	}{
		{workload.OpPut, sp.put}, {workload.OpUpdate, sp.update}, {workload.OpGet, sp.get},
		{workload.OpLookup, sp.lookup}, {workload.OpRangeLookup, sp.ranges},
	} {
		for i := 0; i < share.n; i++ {
			s.block = append(s.block, share.kind)
		}
	}
	return s
}

// fresh draws the next tweet and renders it as a write of key number num
// (-1: its own, new key).
func (s *stream) fresh(num int32) (keyInfo, workload.Op) {
	t, _ := s.gen.Next()
	user, _ := strconv.Atoi(t.UserID[1:]) // the generator writes "u%07d"
	w, kind := keyInfo{num: num, user: int32(user), sec: t.Creation}, workload.OpUpdate
	if num < 0 {
		w.num, kind = int32(len(s.written)), workload.OpPut
	}
	t.ID = s.tweet(w).ID
	return w, workload.Op{Kind: kind, Key: t.ID, Value: t.Doc()}
}

// preload returns the next n inserts.
func (s *stream) preload(n int) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		var w keyInfo
		w, ops[i] = s.fresh(-1)
		s.written = append(s.written, w)
	}
	return ops
}

// querySample is how many written keys a chunk's GETs and query conditions
// are drawn from: a uniform sample stands in for the whole, so the strings
// StaticQueries needs live for one chunk only.
const querySample = 2048

// chunk returns the next n operations of the mix. Shares are exact within
// every block of 100; GETs, UPDATEs and query conditions only refer to keys
// written before the chunk began, so no operation can miss.
func (s *stream) chunk(n int) []workload.Op {
	known := len(s.written)
	sample := make([]workload.Tweet, querySample)
	for i := range sample {
		sample[i] = s.tweet(s.written[s.rng.Intn(known)])
	}
	q := workload.NewStaticQueries(sample, s.rng.Int63())
	ops := make([]workload.Op, 0, n)
	for len(ops) < n {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		for _, kind := range s.block {
			if len(ops) == n {
				break
			}
			var op workload.Op
			switch kind {
			case workload.OpPut:
				var w keyInfo
				w, op = s.fresh(-1)
				s.written = append(s.written, w)
			case workload.OpUpdate:
				i := s.rng.Intn(known)
				s.written[i], op = s.fresh(s.written[i].num)
			case workload.OpGet:
				op = q.Get()
			case workload.OpLookup:
				op = q.Lookup(workload.AttrUser, topK)
			case workload.OpRangeLookup:
				if s.ranges++; s.ranges%2 == 1 {
					op = q.RangeLookupUsers(rangeUsers, topK)
				} else {
					op = q.RangeLookupTime(rangeMinutes, topK)
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// digestOps folds an operation sequence into one number (tests: same seed,
// same stream).
func digestOps(ops []workload.Op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range ops {
		op := &ops[i]
		binary.LittleEndian.PutUint64(b[:], uint64(op.Kind)<<32|uint64(op.K))
		h.Write(b[:])
		for _, s := range []string{op.Key, op.Attr, op.Lo, op.Hi} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		h.Write(op.Value)
	}
	return h.Sum64()
}
