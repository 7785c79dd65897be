package core

import (
	"fmt"
	"math/rand"
	"testing"

	"leveldbpp/internal/lsm"
)

// memStrata returns how many of db's primary strata are MemTables, how
// many of those are frozen, and how many are tables.
func memStrata(t testing.TB, db *DB) (mems, frozen, tables int) {
	t.Helper()
	err := db.primary.View(func(v *lsm.View) error {
		for _, s := range v.Strata() {
			switch {
			case s.Frozen:
				frozen++
				mems++
			case s.IsMem():
				mems++
			default:
				tables++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mems, frozen, tables
}

// TestEmbeddedMemTableStrataMatchModel holds Embedded LOOKUP and
// RANGELOOKUP on both attributes, at K ∈ {1, 10, 0}, to the model while
// every record is still in a MemTable: overwrites (to the same user or
// another) and deletes inside one MemTable, and a frozen MemTable whose
// keys the live one overwrites and deletes, each with GetLite and with the
// full-GET validation of DisableGetLite. A value's newest postings are
// often superseded, so a walk that stopped at the first superseded
// posting, rather than at the first one too old for the heap, would lose
// the older results behind it.
func TestEmbeddedMemTableStrataMatchModel(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		for _, noLite := range []bool{false, true} {
			t.Run(fmt.Sprintf("frozen=%v/DisableGetLite=%v", frozen, noLite), func(t *testing.T) {
				checkMemStrata(t, frozen, noLite)
			})
		}
	}
}

func checkMemStrata(t *testing.T, frozen, noLite bool) {
	opts := Options{Index: IndexEmbedded, Attrs: []string{"UserID", "CreationTime"},
		MemTableBytes: 1 << 30, DisableGetLite: noLite}
	if frozen {
		opts.MemTableBytes = 32 << 10
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(7))
	m := newModel()
	docs := map[string][]byte{}
	var live []string // keys not deleted
	ts := 0
	put := func(key string) {
		ts++
		user := fmt.Sprintf("u%d", rng.Intn(5))
		doc := tweetDoc(user, ts, "memtable strata")
		if err := db.Put(key, doc); err != nil {
			t.Fatal(err)
		}
		m.put(key, user, ts)
		docs[key] = doc
	}
	// op writes a new tweet, overwrites a live one or deletes one; olds
	// limits the overwrites and deletes to the first olds keys.
	op := func(olds int) {
		switch r := rng.Intn(10); {
		case r < 4 || olds == 0:
			key := fmt.Sprintf("t%05d", ts)
			put(key)
			live = append(live, key)
		case r < 8:
			put(live[rng.Intn(olds)])
		default:
			i := rng.Intn(olds)
			key := live[i]
			ts++
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
			m.del(key)
			delete(docs, key)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if frozen {
		// Fill the first MemTable until it freezes, then overwrite and
		// delete its keys from the live one.
		for _, f, _ := memStrata(t, db); f == 0; _, f, _ = memStrata(t, db) {
			op(len(live))
		}
		olds := len(live)
		for i := 0; i < 150; i++ {
			op(min(olds, len(live)))
		}
	} else {
		for i := 0; i < 600; i++ {
			op(len(live))
		}
	}
	wantFrozen := 0
	if frozen {
		wantFrozen = 1
	}
	if mems, f, tables := memStrata(t, db); mems != 1+wantFrozen || f != wantFrozen || tables != 0 {
		t.Fatalf("strata: %d MemTables (%d frozen) and %d tables, want %d (%d) and none", mems, f, tables, 1+wantFrozen, wantFrozen)
	}

	check := func(op, attr, lo, hi string, k int, got []Entry, err error) {
		t.Helper()
		want := m.lookup(attr, lo, hi, k)
		if err != nil || !sameKeys(keysOf(got), want) {
			t.Fatalf("%s %s [%s, %s] k=%d: %v (%v)\nwant %v", op, attr, lo, hi, k, keysOf(got), err, want)
		}
		for i, e := range got {
			if string(e.Value) != string(docs[e.Key]) || i > 0 && e.Seq >= got[i-1].Seq {
				t.Fatalf("%s %s [%s, %s] k=%d: entry %d is %s@%d %s", op, attr, lo, hi, k, i, e.Key, e.Seq, e.Value)
			}
		}
	}
	at := func(i int) string { return fmt.Sprintf("%010d", i) }
	for _, k := range []int{1, 10, 0} {
		for u := 0; u <= 5; u++ { // u5 holds nothing
			user := fmt.Sprintf("u%d", u)
			got, err := db.Lookup("UserID", user, k)
			check("LOOKUP", "UserID", user, user, k, got, err)
		}
		for i := 1; i <= ts; i += 37 {
			got, err := db.Lookup("CreationTime", at(i), k)
			check("LOOKUP", "CreationTime", at(i), at(i), k, got, err)
		}
		for _, r := range [][2]string{{"u0", "u4"}, {"u1", "u3"}, {"u3", "u9"}, {"u2", "u2"}} {
			got, err := db.RangeLookup("UserID", r[0], r[1], k)
			check("RANGELOOKUP", "UserID", r[0], r[1], k, got, err)
		}
		for _, r := range [][2]int{{0, ts}, {ts / 3, 2 * ts / 3}, {ts - 40, ts}, {0, 30}, {ts / 2, ts / 2}} {
			got, err := db.RangeLookup("CreationTime", at(r[0]), at(r[1]), k)
			check("RANGELOOKUP", "CreationTime", at(r[0]), at(r[1]), k, got, err)
		}
	}
}

// openMemTweets opens an Embedded DB whose one MemTable holds n tweets,
// u00–u04 in turn, tweet i created at time i: n postings per attribute.
func openMemTweets(tb testing.TB, n int) *DB {
	tb.Helper()
	db, err := Open(tb.TempDir(), Options{Index: IndexEmbedded,
		Attrs: []string{"UserID", "CreationTime"}, MemTableBytes: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		if err := db.Put(fmt.Sprintf("t%05d", i), tweetDoc(fmt.Sprintf("u%02d", i%5), i, "in memory")); err != nil {
			tb.Fatal(err)
		}
	}
	if mems, _, tables := memStrata(tb, db); mems != 1 || tables != 0 {
		tb.Fatalf("%d MemTables and %d tables, want one MemTable", mems, tables)
	}
	return db
}

// BenchmarkEmbeddedMemLookup is a K=10 LOOKUP of one user over an
// unflushed MemTable of 100 to 5 000 tweets: it tries the list's ten
// newest postings, so its cost should not grow with the list.
func BenchmarkEmbeddedMemLookup(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("postings=%d", n), func(b *testing.B) {
			db := openMemTweets(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Lookup("UserID", "u01", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmbeddedMemRangeLookup is a K=10 RANGELOOKUP over every
// creation time of an unflushed MemTable of 100 to 5 000 tweets: the
// B-tree walk skips the subtrees older than the ten newest postings, so
// its cost should stay flat too.
func BenchmarkEmbeddedMemRangeLookup(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("postings=%d", n), func(b *testing.B) {
			db := openMemTweets(b, n)
			lo, hi := fmt.Sprintf("%010d", 0), fmt.Sprintf("%010d", n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.RangeLookup("CreationTime", lo, hi, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
