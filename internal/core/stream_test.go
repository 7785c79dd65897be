package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
)

// refCollect is the retired materialise→sort→validate pipeline, kept as
// the oracle for collect. It gathers what the per-kind paths gathered,
// through the same index reads — Lazy point LOOKUP stratum by stratum,
// stopping at the first stratum boundary with K results — decodes every
// candidate, ranks them with the reference postings.Merge (newest entry per
// primary key, highest seq first) and validates newest first until K are
// valid; a deletion marker only marks its key decided. It also returns the
// number of validations it ran.
func refCollect(db *DB, attr, lo, hi string, k int, point bool) ([]Entry, int, error) {
	idx := db.indexes[attr]
	r := &refRanker{db: db, attr: attr, lo: lo, hi: hi, k: k, seen: map[string]bool{}}
	var err error
	switch {
	case db.opts.Index == IndexComposite:
		var list postings.List
		err = idx.Scan(compositeKey(lo, ""), append([]byte(hi), compositeSep+1), func(ck, _ []byte, seq uint64) bool {
			if i := bytes.IndexByte(ck, compositeSep); i >= 0 && string(ck[:i]) >= lo && string(ck[:i]) <= hi {
				list = append(list, postings.Entry{Key: string(ck[i+1:]), Seq: seq})
			}
			return true
		})
		if err == nil {
			r.rank([]postings.List{list})
		}
	case point && db.opts.Index == IndexLazy:
		err = idx.View(func(v *lsm.View) error {
			strata := &lazyStrata{v: v, value: []byte(lo), strata: strataOf(v)}
			for !r.full() {
				frag, ok, err := strata.next()
				if err != nil || !ok {
					return err
				}
				if err := r.rankEncoded([][]byte{frag}); err != nil {
					return err
				}
			}
			return nil
		})
	case point:
		var list []byte
		var found bool
		if list, found, err = idx.Get([]byte(lo)); err == nil && found {
			err = r.rankEncoded([][]byte{list})
		}
	case db.opts.Index == IndexLazy:
		var frags [][]byte
		if frags, err = lazyRangeFragments(idx, lo, hi, nil); err == nil {
			err = r.rankEncoded(frags)
		}
	default:
		var lists [][]byte
		err = idx.Scan([]byte(lo), upperBoundExclusive(hi), func(_, v []byte, _ uint64) bool {
			lists = append(lists, bytes.Clone(v))
			return true
		})
		if err == nil {
			err = r.rankEncoded(lists)
		}
	}
	if err != nil {
		return nil, r.validations, err
	}
	return r.out, r.validations, nil
}

type refRanker struct {
	db           *DB
	attr, lo, hi string
	k            int
	seen         map[string]bool
	out          []Entry
	validations  int
}

func (r *refRanker) full() bool { return r.k > 0 && len(r.out) >= r.k }

func (r *refRanker) rankEncoded(frags [][]byte) error {
	lists := make([]postings.List, len(frags))
	for i, frag := range frags {
		l, err := postings.Decode(frag)
		if err != nil {
			return err
		}
		lists[i] = l
	}
	r.rank(lists)
	return nil
}

func (r *refRanker) rank(lists []postings.List) {
	for _, e := range postings.Merge(lists, false) {
		if r.full() {
			return
		}
		if r.seen[e.Key] {
			continue
		}
		r.seen[e.Key] = true
		if e.Del {
			continue
		}
		r.validations++
		doc, ok, err := r.db.primary.Get([]byte(e.Key))
		if err == nil && ok && attrInRange(doc, r.attr, r.lo, r.hi) {
			r.out = append(r.out, Entry{Key: e.Key, Value: doc, Seq: e.Seq})
		}
	}
}

// checkCollect runs one LOOKUP (point) or RANGELOOKUP through collect
// and through refCollect at K = 1, 10 and unbounded: the answers must be
// identical, collect may validate no more than the oracle, and — unless
// the query takes the out-of-order fallback, which decodes the whole
// chain — both must read the same index blocks.
func checkCollect(t *testing.T, db *DB, attr, lo, hi string, point, fallback bool) {
	t.Helper()
	for _, k := range []int{1, 10, 0} {
		what := fmt.Sprintf("%s [%s, %s] k=%d", attr, lo, hi, k)
		b0 := db.Stats().Index.BlockReads
		want, refValidations, werr := refCollect(db, attr, lo, hi, k, point)
		b1 := db.Stats().Index.BlockReads
		var got []Entry
		var err error
		tr := metrics.StartDetached(metrics.OpRangeLookup)
		if point {
			got, err = db.lookupTraced(attr, lo, k, tr)
		} else {
			got, err = db.rangeLookupTraced(attr, lo, hi, k, tr)
		}
		b2 := db.Stats().Index.BlockReads
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: err %v, reference err %v", what, err, werr)
		}
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", what, keysOf(got), keysOf(want))
		}
		if v := int(tr.Counters().Validations); v > refValidations {
			t.Fatalf("%s: %d validations, reference %d", what, v, refValidations)
		}
		if !fallback && b2-b1 != b1-b0 {
			t.Fatalf("%s: index block reads %d, reference %d", what, b2-b1, b1-b0)
		}
	}
}

// TestCollectMatchesReference drives random PUT / attribute-changing
// UPDATE / DEL / Flush / CompactRange / reopen sequences through the three
// stand-alone kinds, starting from an empty database (v2) and from the
// seed-format fixture (v1 tables and posting lists, which the sequence
// gradually rewrites), and holds every LOOKUP and RANGELOOKUP to
// refCollect.
func TestCollectMatchesReference(t *testing.T) {
	for _, leg := range []struct {
		format string
		seed   int64
	}{{"v2", 2}, {"v1", 1}} {
		for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite} {
			t.Run(kind.String()+"/"+leg.format, func(t *testing.T) {
				dir := t.TempDir()
				if leg.format == "v1" {
					dir = copySeedFormat(t, kind)
				}
				opts := smallOptions(kind)
				db, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { db.Close() }()
				rng := rand.New(rand.NewSource(int64(kind)*10 + leg.seed))
				user := func() string { return fmt.Sprintf("u%02d", rng.Intn(12)) }
				steps, fresh := 600, 0
				for step := 0; step < steps; step++ {
					switch r := rng.Intn(100); {
					case r < 55 || fresh == 0:
						err = db.Put(fmt.Sprintf("t%04d", fresh), tweetDoc(user(), rng.Intn(steps), "fresh"))
						fresh++
					case r < 80:
						err = db.Put(fmt.Sprintf("t%04d", rng.Intn(fresh)), tweetDoc(user(), rng.Intn(steps), "updated"))
					case r < 90:
						err = db.Delete(fmt.Sprintf("t%04d", rng.Intn(fresh)))
					case r < 94:
						err = db.Flush()
					case r < 97:
						err = db.CompactRange("", "")
					default:
						if err = db.Close(); err == nil {
							db, err = Open(dir, opts)
						}
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if step%60 == 59 {
						u := user()
						checkCollect(t, db, "UserID", u, u, true, false)
						checkCollect(t, db, "UserID", "u03", "u07", false, false)
						lo := rng.Intn(steps)
						checkCollect(t, db, "CreationTime", fmt.Sprintf("%010d", lo), fmt.Sprintf("%010d", lo+rng.Intn(150)), false, false)
					}
				}
			})
		}
	}
}

// TestCollectUnsortedFragmentFallback hand-writes a v2 fragment whose
// entries break newest-first order: the chain and the cursor heap must
// both take the decode-all fallback and answer as the oracle does.
func TestCollectUnsortedFragmentFallback(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openKind(t, kind)
			for i := 0; i < 40; i++ {
				if err := db.Put(fmt.Sprintf("t%03d", i), tweetDoc(fmt.Sprintf("u%d", i%3), i, "x")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				if err := db.Put(fmt.Sprintf("h%d", i), tweetDoc("hw", 100+i, "x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			all, err := db.Lookup("UserID", "hw", 0)
			if err != nil || len(all) != 6 {
				t.Fatalf("lookup hw = %v, %v", keysOf(all), err)
			}
			// The same six postings (real keys and seqs), oldest in the middle.
			var list postings.List
			for _, i := range []int{3, 1, 5, 0, 4, 2} {
				list = append(list, postings.Entry{Key: all[i].Key, Seq: all[i].Seq})
			}
			frag := postings.AppendList(nil, list)
			if sorted, err := new(postings.Cursor).Prime(frag); err != nil || sorted {
				t.Fatalf("hand-written fragment: sorted=%v err=%v", sorted, err)
			}
			if err := db.indexes["UserID"].Put([]byte("hw"), frag); err != nil {
				t.Fatal(err)
			}
			checkCollect(t, db, "UserID", "hw", "hw", true, true)
			checkCollect(t, db, "UserID", "h", "u1", false, true)
			got, err := db.Lookup("UserID", "hw", 1)
			if err != nil || len(got) != 1 || got[0].Key != all[0].Key {
				t.Fatalf("top-1 = %v, %v; want %s", keysOf(got), err, all[0].Key)
			}
		})
	}
}

// TestCorruptFragmentFailsQuery writes a structurally corrupt posting list
// whose valid head would satisfy K = 1 on its own: LOOKUP and RANGELOOKUP
// of both posting kinds must fail with postings.ErrCorrupt rather than
// answer from the part before the damage. Eager RANGELOOKUP used to skip
// an undecodable list and return fewer results with no error.
func TestCorruptFragmentFailsQuery(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		for _, point := range []bool{true, false} {
			name := kind.String() + "/rangelookup"
			if point {
				name = kind.String() + "/lookup"
			}
			t.Run(name, func(t *testing.T) {
				db := openKind(t, kind)
				for i := 0; i < 30; i++ {
					if err := db.Put(fmt.Sprintf("t%03d", i), tweetDoc(fmt.Sprintf("u%d", i%3), i, "x")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				newest, err := db.Lookup("UserID", "u2", 1)
				if err != nil || len(newest) != 1 {
					t.Fatalf("lookup u2 = %v, %v", newest, err)
				}
				// A valid newest posting, then a truncated varint.
				corrupt := postings.AppendList(nil, postings.List{{Key: newest[0].Key, Seq: newest[0].Seq}})
				corrupt = append(corrupt, 0x80)
				if err := db.indexes["UserID"].Put([]byte("u2"), corrupt); err != nil {
					t.Fatal(err)
				}
				if point {
					_, err = db.Lookup("UserID", "u2", 1)
				} else {
					_, err = db.RangeLookup("UserID", "u0", "u2", 1)
				}
				if !errors.Is(err, postings.ErrCorrupt) {
					t.Fatalf("err = %v, want %v", err, postings.ErrCorrupt)
				}
			})
		}
	}
}

// fuzzFragments splits fuzz input into at most 16 fragments, each a length
// byte followed by that many bytes (truncated at the end of the input).
func fuzzFragments(data []byte) [][]byte {
	var frags [][]byte
	for len(data) > 0 && len(frags) < 16 {
		n := min(int(data[0]), len(data)-1)
		frags = append(frags, data[1:1+n:1+n])
		data = data[1+n:]
	}
	return frags
}

type streamed struct {
	key string
	seq uint64
	del bool
}

// firstOccurrences keeps the first entry of each primary key.
func firstOccurrences(in []streamed) []streamed {
	seen := map[string]bool{}
	var out []streamed
	for _, e := range in {
		if !seen[e.key] {
			seen[e.key] = true
			out = append(out, e)
		}
	}
	return out
}

// FuzzNewestFirstStream: on arbitrary fragment sets the cursor heap either
// fails exactly when decoding every fragment fails, or yields the same
// first-occurrence sequence as decoding everything and stably sorting it by
// seq descending — whether the fragments are in order (the heap) or not
// (the fallback). The seed corpus is testdata/fuzz/FuzzNewestFirstStream.
func FuzzNewestFirstStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frags := fuzzFragments(data)
		var all []streamed
		var refErr error
		for _, fr := range frags {
			l, err := postings.Decode(fr)
			if err != nil {
				refErr = err
				break
			}
			for _, e := range l {
				all = append(all, streamed{e.Key, e.Seq, e.Del})
			}
		}
		h, err := newFragmentHeap(frags, nil)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("heap err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].seq > all[j].seq })
		var got []streamed
		for key, seq, del, ok := h.next(); ok; key, seq, del, ok = h.next() {
			got = append(got, streamed{string(key), seq, del})
		}
		want := firstOccurrences(all)
		if got = firstOccurrences(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %v\n want %v", got, want)
		}
	})
}
