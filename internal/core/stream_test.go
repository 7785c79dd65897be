package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/lsm"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/postings"
	"leveldbpp/internal/sstable"
)

// refCollect is the retired materialise→sort→validate pipeline, kept as
// the oracle for collect. It gathers what the per-kind paths gathered,
// through the same index reads — Lazy point LOOKUP stratum by stratum,
// every MemTable version of the key included, stopping at the first
// stratum boundary with K results — decodes every
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
		err = idx.Scan(compositeKey(lo, ""), append([]byte(hi), compositeSep+1), nil, func(ck, _ []byte, seq uint64) bool {
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
			for _, st := range v.Strata() {
				if r.full() {
					return nil
				}
				frags, dead, err := refStratumFragments(st, []byte(lo))
				if err == nil {
					err = r.rankEncoded(frags)
				}
				if err != nil || dead {
					return err
				}
			}
			return nil
		})
	case point:
		var list []byte
		var found bool
		if list, found, err = idx.Get([]byte(lo), nil); err == nil && found {
			err = r.rankEncoded([][]byte{list})
		}
	case db.opts.Index == IndexLazy:
		var frags [][]byte
		if frags, err = lazyRangeFragments(idx, lo, hi); err == nil {
			err = r.rankEncoded(frags)
		}
	default:
		var lists [][]byte
		err = idx.Scan([]byte(lo), upperBoundExclusive(hi), nil, func(_, v []byte, _ uint64) bool {
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

// refStratumFragments is what one stratum holds for the secondary key
// value, newest first: in a MemTable every version above the key's newest
// tombstone, in a table its one record. dead reports a tombstone, which
// hides every older fragment of the key.
func refStratumFragments(st lsm.Stratum, value []byte) (frags [][]byte, dead bool, err error) {
	if st.IsMem() {
		it := st.MemIter()
		for it.SeekGE(ikey.SeekKey(value)); it.Valid() && bytes.Equal(ikey.UserKey(it.Key()), value); it.Next() {
			if ikey.KindOf(it.Key()) == ikey.KindDelete {
				return frags, true, nil
			}
			frags = append(frags, it.Value()) //lsm:aliasok
		}
		return frags, false, nil
	}
	fm := st.FindFile(value)
	if fm == nil {
		return nil, false, nil
	}
	ik, data, ok, err := fm.Table().GetWith(&sstable.GetScratch{}, value)
	if err != nil || !ok {
		return nil, false, err
	}
	if ikey.KindOf(ik) == ikey.KindDelete {
		return nil, true, nil
	}
	return [][]byte{bytes.Clone(data)}, false, nil
}

// stratumTables returns the tables of a table stratum that a scan of the
// user keys [lo, hiExcl) visits: a level-0 stratum's one table, or the
// files of a deeper level intersecting the range.
func stratumTables(s lsm.Stratum, lo, hiExcl []byte) []*lsm.FileMeta {
	if s.Level == 0 {
		return s.Tables
	}
	var out []*lsm.FileMeta
	for _, fm := range s.Tables {
		if fm.Overlaps(lo, hiExcl) {
			out = append(out, fm)
		}
	}
	return out
}

// lazyRangeFragments is the retired Lazy RANGELOOKUP gather: from every
// stratum of the index table, the fragments of each secondary key in
// [lo, hi] that the stratum holds — in a MemTable, every version above
// the key's newest tombstone.
func lazyRangeFragments(idx *lsm.DB, lo, hi string) ([][]byte, error) {
	var frags [][]byte
	err := idx.View(func(v *lsm.View) error {
		loB, hiExcl := []byte(lo), upperBoundExclusive(hi)
		seek := ikey.SeekKey(loB)
		for _, s := range v.Strata() {
			if s.IsMem() {
				var prevUser []byte
				dead := false // the key's versions from here down are tombstoned
				it := s.MemIter()
				for it.SeekGE(seek); it.Valid(); it.Next() {
					ik := it.Key()
					uk := ikey.UserKey(ik)
					if bytes.Compare(uk, hiExcl) >= 0 {
						break
					}
					if prevUser == nil || !bytes.Equal(prevUser, uk) {
						dead = false
					}
					prevUser = append(prevUser[:0], uk...)
					if dead = dead || ikey.KindOf(ik) == ikey.KindDelete; !dead {
						frags = append(frags, it.Value()) //lsm:aliasok
					}
				}
				continue
			}
			for _, fm := range stratumTables(s, loB, hiExcl) {
				ti := fm.Table().NewIterator(false)
				for ok := ti.SeekGE(seek); ok; ok = ti.Next() {
					ik := ti.Key()
					if bytes.Compare(ikey.UserKey(ik), hiExcl) >= 0 {
						break
					}
					if ikey.KindOf(ik) != ikey.KindDelete {
						frags = append(frags, bytes.Clone(ti.Value()))
					}
				}
				if err := ti.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return frags, err
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
		doc, ok, err := r.db.primary.Get([]byte(e.Key), nil)
		if err == nil && ok && attrInRange(doc, r.attr, r.lo, r.hi) {
			r.out = append(r.out, Entry{Key: e.Key, Value: doc, Seq: e.Seq})
		}
	}
}

// checkCollect runs one LOOKUP (point) or RANGELOOKUP through collect
// and through refCollect at K = 1, 10 and unbounded: the answers and the
// validation counts must be identical, collect may access no more primary
// blocks than the oracle's one GET per candidate, and it may read no more
// index blocks than the oracle. A posting kind's LOOKUP must read the
// same ones; the seq-bounded sources (every RANGELOOKUP and Composite
// LOOKUP), whose oracles scan every stratum, may read fewer.
func checkCollect(t *testing.T, db *DB, attr, lo, hi string, point bool) {
	t.Helper()
	primaryBlocks := func(s Stats) int64 { return s.Primary.BlockReads + s.Primary.CacheHits }
	for _, k := range []int{1, 10, 0} {
		what := fmt.Sprintf("%s [%s, %s] k=%d", attr, lo, hi, k)
		s0 := db.Stats()
		want, refValidations, werr := refCollect(db, attr, lo, hi, k, point)
		s1 := db.Stats()
		tr := metrics.StartDetached(metrics.OpRangeLookup)
		got, err := db.query(point, attr, lo, hi, k, tr)
		s2 := db.Stats()
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: err %v, reference err %v", what, err, werr)
		}
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", what, keysOf(got), keysOf(want))
		}
		if v := int(tr.Counters().Validations); v != refValidations {
			t.Fatalf("%s: %d validations, reference %d", what, v, refValidations)
		}
		if got, ref := primaryBlocks(s2)-primaryBlocks(s1), primaryBlocks(s1)-primaryBlocks(s0); got > ref {
			t.Fatalf("%s: primary block accesses %d, reference %d", what, got, ref)
		}
		if got, ref := s2.Index.BlockReads-s1.Index.BlockReads, s1.Index.BlockReads-s0.Index.BlockReads; got > ref || got != ref && point && db.opts.Index != IndexComposite {
			t.Fatalf("%s: index block reads %d, reference %d", what, got, ref)
		}
	}
}

// TestValidationSharesBlocks: on a compacted tree, a CreationTime
// RANGELOOKUP whose top 10 are consecutive documents in one primary block
// validates all ten with exactly one primary block read.
func TestValidationSharesBlocks(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy, IndexComposite} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openGolden(t, kind)
			// Find ten consecutive documents that one primary block holds.
			for first := 0; first+10 <= 1500; first += 10 {
				keys := make([][]byte, 10)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("t%05d", first+i))
				}
				if db.primary.DistinctBlocks(keys) != 1 {
					continue
				}
				before := db.Stats().Primary
				out, err := db.RangeLookup("CreationTime", fmt.Sprintf("%010d", first), fmt.Sprintf("%010d", first+9), 10)
				if err != nil {
					t.Fatal(err)
				}
				after := db.Stats().Primary
				if len(out) != 10 || out[0].Key != string(keys[9]) || out[9].Key != string(keys[0]) {
					t.Fatalf("top 10 = %v, want %s … %s", keysOf(out), keys[9], keys[0])
				}
				if n := after.BlockReads - before.BlockReads; n != 1 {
					t.Fatalf("validating %s … %s read %d primary blocks, want 1", keys[0], keys[9], n)
				}
				return
			}
			t.Fatal("no ten consecutive documents share a primary block")
		})
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
						checkCollect(t, db, "UserID", u, u, true)
						checkCollect(t, db, "UserID", "u03", "u07", false)
						lo := rng.Intn(steps)
						checkCollect(t, db, "CreationTime", fmt.Sprintf("%010d", lo), fmt.Sprintf("%010d", lo+rng.Intn(150)), false)
					}
				}
			})
		}
	}
}

// TestLazyChainStopsAtTombstone writes a tombstone for a secondary key
// between its MemTable versions: LOOKUP and RANGELOOKUP must read the
// versions above it only, though the documents below it are still valid.
func TestLazyChainStopsAtTombstone(t *testing.T) {
	db := openKind(t, IndexLazy)
	for i, key := range []string{"a", "b"} {
		if err := db.Put(key, tweetDoc("hw", i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	idx := db.indexes["UserID"]
	if err := idx.DeleteAt([]byte("hw"), 0); err != nil {
		t.Fatal(err)
	}
	db.primary.AdvanceSeq(idx.LastSeq()) // the tombstone took an index seq
	if err := db.Put("c", tweetDoc("hw", 2, "x")); err != nil {
		t.Fatal(err)
	}
	checkCollect(t, db, "UserID", "hw", "hw", true)
	checkCollect(t, db, "UserID", "h", "i", false)
	for _, point := range []bool{true, false} {
		got, err := db.Lookup("UserID", "hw", 0)
		if !point {
			got, err = db.RangeLookup("UserID", "h", "i", 0)
		}
		if err != nil || !sameKeys(keysOf(got), []string{"c"}) {
			t.Fatalf("point=%v: %v, %v; want [c]", point, keysOf(got), err)
		}
	}
}

// TestCollectUnsortedFragmentFallback writes a secondary key's real
// postings newest first but for the oldest in the middle, for Lazy above
// an older version of the key. There is no decode-all fallback for such a
// list: unbounded LOOKUP and RANGELOOKUP fail with postings.ErrCorrupt.
// For Lazy a newer document's fragment above it answers K = 1 without
// opening it, and compaction salvages it, after which each query answers
// as refCollect does; an Eager list still fails after compaction.
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
			idx := db.indexes["UserID"]
			put := func(list postings.List) {
				t.Helper()
				if err := idx.PutAt([]byte("hw"), postings.AppendList(nil, list), 0); err != nil {
					t.Fatal(err)
				}
			}
			fails := func(when string) {
				t.Helper()
				if _, err := db.Lookup("UserID", "hw", 0); !errors.Is(err, postings.ErrCorrupt) {
					t.Fatalf("%s: lookup err = %v, want %v", when, err, postings.ErrCorrupt)
				}
				if _, err := db.RangeLookup("UserID", "h", "u1", 0); !errors.Is(err, postings.ErrCorrupt) {
					t.Fatalf("%s: rangelookup err = %v, want %v", when, err, postings.ErrCorrupt)
				}
			}
			if kind == IndexLazy {
				put(postings.List{{Key: all[5].Key, Seq: all[5].Seq}}) // an older version below it
			}
			// The same six postings (real keys and seqs), oldest in the middle.
			var list postings.List
			for _, i := range []int{3, 1, 5, 0, 4, 2} {
				list = append(list, postings.Entry{Key: all[i].Key, Seq: all[i].Seq})
			}
			if err := new(postings.Cursor).Prime(postings.AppendList(nil, list)); !errors.Is(err, postings.ErrCorrupt) {
				t.Fatalf("hand-written fragment: err = %v, want %v", err, postings.ErrCorrupt)
			}
			put(list)
			fails("unsorted newest version")
			if kind == IndexLazy {
				// A newer document: its blind fragment is the key's newest
				// version, newer than every posting of the unsorted one.
				// The hand-written versions took index seqs the primary
				// has not reached.
				db.primary.AdvanceSeq(idx.LastSeq())
				if err := db.Put("h6", tweetDoc("hw", 106, "x")); err != nil {
					t.Fatal(err)
				}
				got, err := db.Lookup("UserID", "hw", 1)
				if err != nil || len(got) != 1 || got[0].Key != "h6" {
					t.Fatalf("top-1 = %v, %v; want [h6]", keysOf(got), err)
				}
				fails("unsorted mid-chain")
			}
			if err := db.CompactRange("", ""); err != nil {
				t.Fatal(err)
			}
			if kind == IndexEager {
				fails("after compaction")
				return
			}
			checkCollect(t, db, "UserID", "hw", "hw", true)
			checkCollect(t, db, "UserID", "h", "u1", false)
		})
	}
}

// TestCorruptFragmentFailsQuery writes an ill-formed posting list for a
// secondary key whose valid head would satisfy K = 1 on its own: one
// truncated after that head, and one holding the key's real postings
// newest first but for the oldest in the middle, so its seqs rise there.
// LOOKUP and RANGELOOKUP of both posting kinds must fail with
// postings.ErrCorrupt rather than answer from the part before the damage
// (Eager RANGELOOKUP used to skip an undecodable list and return fewer
// results with no error). For Lazy the out-of-order list is also written
// in the middle of the key's MemTable chain, under a newer document's
// fragment: K = 1 answers from that fragment without opening the list,
// an unbounded query fails. Compaction salvages a Lazy list, writing back
// in order the fragments that decode, after which each query answers as
// refCollect does; an Eager list has no salvage and still fails.
func TestCorruptFragmentFailsQuery(t *testing.T) {
	for _, kind := range []IndexKind{IndexEager, IndexLazy} {
		for _, point := range []bool{true, false} {
			name := kind.String() + "/rangelookup"
			if point {
				name = kind.String() + "/lookup"
			}
			t.Run(name, func(t *testing.T) {
				damages := []string{"truncated", "unsorted"}
				if kind == IndexLazy {
					damages = append(damages, "unsorted-in-chain")
				}
				for _, damage := range damages {
					t.Run(damage, func(t *testing.T) { checkCorruptFragment(t, kind, point, damage) })
				}
			})
		}
	}
}

// checkCorruptFragment is one case of TestCorruptFragmentFailsQuery.
func checkCorruptFragment(t *testing.T, kind IndexKind, point bool, damage string) {
	db := openKind(t, kind)
	for i := 0; i < 30; i++ {
		if err := db.Put(fmt.Sprintf("t%03d", i), tweetDoc(fmt.Sprintf("u%d", i%3), i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	all, err := db.Lookup("UserID", "u2", 0)
	if err != nil || len(all) != 10 {
		t.Fatalf("lookup u2 = %v, %v", keysOf(all), err)
	}
	var list []byte
	if damage == "truncated" {
		// A valid newest posting, then a truncated varint.
		list = append(postings.AppendList(nil, postings.List{{Key: all[0].Key, Seq: all[0].Seq}}), 0x80)
	} else {
		var l postings.List
		for _, i := range []int{0, 3, 1, 9, 5, 2, 4, 8, 6, 7} {
			l = append(l, postings.Entry{Key: all[i].Key, Seq: all[i].Seq})
		}
		list = postings.AppendList(nil, l)
	}
	idx := db.indexes["UserID"]
	if err := idx.PutAt([]byte("u2"), list, 0); err != nil {
		t.Fatal(err)
	}
	query := func(k int) ([]Entry, error) {
		if point {
			return db.Lookup("UserID", "u2", k)
		}
		return db.RangeLookup("UserID", "u0", "u2", k)
	}
	k := 1
	if damage == "unsorted-in-chain" {
		// The hand-written version took an index seq the primary has not
		// reached.
		db.primary.AdvanceSeq(idx.LastSeq())
		if err := db.Put("t100", tweetDoc("u2", 100, "x")); err != nil {
			t.Fatal(err)
		}
		if got, err := query(1); err != nil || len(got) != 1 || got[0].Key != "t100" {
			t.Fatalf("top-1 = %v, %v; want [t100]", keysOf(got), err)
		}
		k = 0
	}
	if _, err := query(k); !errors.Is(err, postings.ErrCorrupt) {
		t.Fatalf("k=%d: err = %v, want %v", k, err, postings.ErrCorrupt)
	}
	if err := db.CompactRange("", ""); err != nil {
		t.Fatal(err)
	}
	if kind == IndexEager {
		if _, err := query(k); !errors.Is(err, postings.ErrCorrupt) {
			t.Fatalf("after compaction, k=%d: err = %v, want %v", k, err, postings.ErrCorrupt)
		}
		return
	}
	if point {
		checkCollect(t, db, "UserID", "u2", "u2", true)
	} else {
		checkCollect(t, db, "UserID", "u0", "u2", false)
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
// fails exactly when a fragment fails to decode or is out of newest-first
// order, or yields the same first-occurrence sequence as decoding
// everything and stably sorting it by seq descending. lazyMerger drains
// the same heap: on such a set it fails too, and otherwise, for both
// values of bottom, writes the linear scan's bytes and the reference
// postings.Merge's entries. The seed corpus is
// testdata/fuzz/FuzzNewestFirstStream.
func FuzzNewestFirstStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frags := fuzzFragments(data)
		var lists []postings.List
		var all []streamed
		var refErr error
		for _, fr := range frags {
			l, err := postings.Decode(fr)
			if err != nil {
				refErr = err
				break
			}
			lists = append(lists, l)
			for i, e := range l {
				if i > 0 && e.Seq > l[i-1].Seq {
					refErr = postings.ErrCorrupt
				}
				all = append(all, streamed{e.Key, e.Seq, e.Del})
			}
		}
		for _, bottom := range []bool{false, true} {
			if refErr == nil {
				checkMergeMatches(t, lists, frags, bottom)
			} else if _, err := mergeFresh(frags, bottom); err == nil {
				t.Fatalf("bottom=%v: merge accepted fragments the reference rejects (%v)", bottom, refErr)
			}
		}
		h, err := newFragmentHeap(frags, nil)
		if (err != nil) != (refErr != nil) || refErr == postings.ErrCorrupt && !errors.Is(err, refErr) {
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
