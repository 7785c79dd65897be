package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"leveldbpp/internal/ikey"
)

func newList() *List { return New(bytes.Compare) }

// get returns the value stored at exactly key, as a MemTable read finds it.
func get(l *List, key []byte) ([]byte, bool) {
	it := l.NewIterator()
	if it.SeekGE(key); it.Valid() && bytes.Equal(it.Key(), key) {
		return it.Value(), true
	}
	return nil, false
}

func TestEmpty(t *testing.T) {
	l := newList()
	if _, ok := get(l, []byte("x")); ok {
		t.Fatal("empty list returned a value")
	}
	it := l.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator over empty list is valid")
	}
	if l.Len() != 0 || l.ApproximateMemoryUsage() != 0 {
		t.Fatal("empty list has nonzero size")
	}
}

func TestInsertGet(t *testing.T) {
	l := newList()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("k%06d", i))
		l.Insert(k, []byte(fmt.Sprintf("v%d", i)))
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := get(l, []byte(fmt.Sprintf("k%06d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := get(l, []byte("missing")); ok {
		t.Fatal("found a missing key")
	}
}

func TestOrderedIteration(t *testing.T) {
	l := newList()
	perm := rand.New(rand.NewSource(7)).Perm(500)
	for _, i := range perm {
		l.Insert([]byte(fmt.Sprintf("k%06d", i)), nil)
	}
	it := l.NewIterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 500 {
		t.Fatalf("iterated %d entries", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("iteration out of order")
	}
}

func TestSeekGE(t *testing.T) {
	l := newList()
	for i := 0; i < 100; i += 2 {
		l.Insert([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	it := l.NewIterator()

	it.SeekGE([]byte("k10")) // exact
	if !it.Valid() || string(it.Key()) != "k10" {
		t.Fatalf("SeekGE exact: %q", it.Key())
	}
	it.SeekGE([]byte("k11")) // between
	if !it.Valid() || string(it.Key()) != "k12" {
		t.Fatalf("SeekGE between: %q", it.Key())
	}
	it.SeekGE([]byte("k99")) // past end
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
	it.SeekGE([]byte("")) // before start
	if !it.Valid() || string(it.Key()) != "k00" {
		t.Fatalf("SeekGE before start: %q", it.Key())
	}
}

// TestSeekForwardMatchesSeekGE seeks forward from every position to
// targets at and beyond it, present and absent, and requires SeekGE's
// answer.
func TestSeekForwardMatchesSeekGE(t *testing.T) {
	l := newList()
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(600) {
		l.Insert([]byte(fmt.Sprintf("k%04d", 2*i)), nil)
	}
	want, got := l.NewIterator(), l.NewIterator()
	key := func(it *Iterator) string {
		if !it.Valid() {
			return "(end)"
		}
		return string(it.Key())
	}
	for from := 0; from < 1200; from += 7 {
		for _, d := range []int{1, 2, 3, 17, 64, 300, 1201} {
			target := []byte(fmt.Sprintf("k%04d", from+d))
			got.SeekGE([]byte(fmt.Sprintf("k%04d", from)))
			if !got.Valid() || bytes.Compare(got.Key(), target) >= 0 {
				continue // SeekForward starts below its target
			}
			got.SeekForward(target)
			want.SeekGE(target)
			if got.Valid() != want.Valid() || got.Valid() && !bytes.Equal(got.Key(), want.Key()) {
				t.Fatalf("SeekForward(%s) from k%04d = %s, SeekGE = %s", target, from, key(got), key(want))
			}
		}
	}
}

func TestDuplicatePanics(t *testing.T) {
	l := newList()
	l.Insert([]byte("a"), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	l.Insert([]byte("a"), nil)
}

func TestMemoryAccounting(t *testing.T) {
	l := newList()
	l.Insert([]byte("abc"), []byte("defgh"))
	if got := l.ApproximateMemoryUsage(); got != 8 {
		t.Fatalf("memory usage = %d, want 8", got)
	}
}

func TestConcurrentReadDuringInsert(t *testing.T) {
	l := newList()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers repeatedly scan and verify ordering while a single writer
	// inserts. Run with -race to validate the publication protocol.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := l.NewIterator()
				prev := []byte(nil)
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						panic("out of order during concurrent read")
					}
					prev = it.Key()
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		l.Insert([]byte(fmt.Sprintf("k%08d", rand.Int63())), nil)
	}
	close(stop)
	wg.Wait()
}

func TestQuickMatchesSortedMap(t *testing.T) {
	prop := func(keys []string) bool {
		l := newList()
		ref := map[string]string{}
		for i, k := range keys {
			if _, dup := ref[k]; dup {
				continue
			}
			v := fmt.Sprintf("v%d", i)
			ref[k] = v
			l.Insert([]byte(k), []byte(v))
		}
		if l.Len() != len(ref) {
			return false
		}
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		it := l.NewIterator()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(want) || string(it.Key()) != want[i] || string(it.Value()) != ref[want[i]] {
				return false
			}
			i++
		}
		return i == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// valueOf is the value the page tests store under key i: long enough
// that a few hundred records fill several byte pages, and checkable.
func valueOf(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("v%05d|", i)), 5)
}

func keyOf(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }

// TestInsertsCrossPages fills several link and byte pages, in shuffled
// order, and reads every record back by Get and in order by iteration.
func TestInsertsCrossPages(t *testing.T) {
	l := newList()
	const n = 3000
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		l.Insert(keyOf(i), valueOf(i))
	}
	if p := l.pages.Load(); len(p.links) < 2 || len(p.data) < 2 {
		t.Fatalf("%d link pages, %d byte pages; want several of each", len(p.links), len(p.data))
	}
	for i := 0; i < n; i++ {
		if v, ok := get(l, keyOf(i)); !ok || !bytes.Equal(v, valueOf(i)) {
			t.Fatalf("Get(%s) = %q, %v", keyOf(i), v, ok)
		}
	}
	it := l.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), keyOf(i)) || !bytes.Equal(it.Value(), valueOf(i)) {
			t.Fatalf("entry %d = %q → %q", i, it.Key(), it.Value())
		}
		i++
	}
	if i != n {
		t.Fatalf("iterated %d entries, want %d", i, n)
	}
}

// TestValueLargerThanPage stores values larger than a byte page between
// small records: each gets a page of its own, and the records around it
// keep theirs.
func TestValueLargerThanPage(t *testing.T) {
	l := newList()
	big := bytes.Repeat([]byte("0123456789abcdef"), 2*dataPageBytes/16+1)
	for i := 0; i < 40; i++ {
		v := valueOf(i)
		if i%10 == 5 {
			v = append(big[:len(big):len(big)], byte(i))
		}
		l.Insert(keyOf(i), v)
	}
	own := 0
	for _, p := range l.pages.Load().data {
		if len(p) == len(big)+1 {
			own++
		}
	}
	if own != 4 {
		t.Fatalf("%d records on pages of their own, want 4", own)
	}
	for i := 0; i < 40; i++ {
		v, ok := get(l, keyOf(i))
		want := valueOf(i)
		if i%10 == 5 {
			want = append(big[:len(big):len(big)], byte(i))
		}
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%s): %d bytes, %v; want %d bytes", keyOf(i), len(v), ok, len(want))
		}
	}
	if got, want := l.ApproximateMemoryUsage(), int64(40*len(keyOf(0))+36*len(valueOf(0))+4*(len(big)+1)); got != want {
		t.Fatalf("memory usage = %d, want %d", got, want)
	}
}

// TestAppendToReturnedSlices appends to keys and values the list handed
// out — by InsertParts, Get and an Iterator — and requires the record
// stored right behind each in the arena to be intact.
func TestAppendToReturnedSlices(t *testing.T) {
	l := newList()
	k, v := l.InsertParts([]byte("a"), []byte("1"), []byte("x"))
	l.Insert([]byte("b2"), []byte("y"))
	l.Insert([]byte("c3"), []byte("z"))
	_ = append(k, "!!"...)
	_ = append(v, "!!"...)
	gv, _ := get(l, []byte("b2"))
	_ = append(gv, "!!"...)
	it := l.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		_ = append(it.Key(), "##"...)
		_ = append(it.Value(), "##"...)
	}
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key())+"="+string(it.Value()))
	}
	if want := "a1=x b2=y c3=z"; strings.Join(got, " ") != want {
		t.Fatalf("entries after the appends = %q, want %q", got, want)
	}
}

// TestEmptyListHoldsNoPage holds New, and reads of the empty list, to the
// List itself: no page until the first insert.
func TestEmptyListHoldsNoPage(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { newList() }); a > 1 {
		t.Fatalf("New allocates %.0f times, want once (the List)", a)
	}
	l := newList()
	it := l.NewIterator()
	it.SeekToFirst()
	it.SeekGE([]byte("a"))
	get(l, []byte("a"))
	if p := l.pages.Load(); len(p.links) != 0 || len(p.data) != 0 || l.links != nil || l.data != nil {
		t.Fatalf("empty list holds %d link and %d byte pages", len(p.links), len(p.data))
	}
	l.Insert([]byte("a"), nil)
	if p := l.pages.Load(); len(p.links) != 1 || len(p.data) != 1 {
		t.Fatalf("one record: %d link and %d byte pages, want 1 and 1", len(p.links), len(p.data))
	}
}

// TestIteratorCopy copies an Iterator by value: the copy keeps its
// position while the original moves on, walks on its own, and reaches
// records inserted on pages added after it was made.
func TestIteratorCopy(t *testing.T) {
	l := newList()
	for i := 0; i < 10; i++ {
		l.Insert(keyOf(2*i), valueOf(2*i))
	}
	it := l.NewIterator()
	it.SeekGE(keyOf(4))
	cp := *it
	it.Next()
	it.Next()
	if !bytes.Equal(cp.Key(), keyOf(4)) || !bytes.Equal(it.Key(), keyOf(8)) {
		t.Fatalf("copy at %s, original at %s; want %s, %s", cp.Key(), it.Key(), keyOf(4), keyOf(8))
	}
	// Fill new pages after the copy's snapshot; the copy's walk must
	// reach the records on them.
	for i := 0; i < 2000; i++ {
		l.Insert(keyOf(2*i+1), valueOf(2*i+1))
	}
	for i := 4; i < 20; i++ {
		if !cp.Valid() || !bytes.Equal(cp.Key(), keyOf(i)) || !bytes.Equal(cp.Value(), valueOf(i)) {
			t.Fatalf("copy's step %d: valid %v; want %s", i, cp.Valid(), keyOf(i))
		}
		cp.Next()
	}
	cp.SeekForward(keyOf(3501))
	if !cp.Valid() || !bytes.Equal(cp.Key(), keyOf(3501)) {
		t.Fatalf("copy's SeekForward missed %s", keyOf(3501))
	}
}

// TestConcurrentReadsDuringPageGrowth races readers against an insert
// stream that keeps adding link and byte pages (some records take a byte
// page of their own), so readers meet links into pages their snapshot of
// the directory predates. Every record a reader sees must carry its
// key's value. Run with -race to validate the publication protocol.
func TestConcurrentReadsDuringPageGrowth(t *testing.T) {
	l := newList()
	const n = 4000
	big := func(i int) []byte {
		v := valueOf(i)
		if i%97 == 0 {
			v = bytes.Repeat(v, dataPageBytes/len(v)+1)
		}
		return v
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := l.NewIterator()
				it.SeekGE(keyOf(rng.Intn(n)))
				var prev []byte
				for steps := 0; it.Valid() && steps < 200; steps++ {
					var i int
					if _, err := fmt.Sscanf(string(it.Key()), "k%07d", &i); err != nil || !bytes.Equal(it.Value(), big(i)) {
						errs <- fmt.Errorf("record %q holds %d bytes, not its value", it.Key(), len(it.Value()))
						return
					}
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						errs <- fmt.Errorf("%q after %q", it.Key(), prev)
						return
					}
					prev = it.Key()
					it.Next()
				}
			}
		}(r)
	}
	for _, i := range rand.New(rand.NewSource(9)).Perm(n) {
		l.Insert(keyOf(i), big(i))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p := l.pages.Load(); len(p.links) < 8 || len(p.data) < 8 {
		t.Fatalf("%d link pages, %d byte pages; want the directory to grow", len(p.links), len(p.data))
	}
}

func BenchmarkInsert(b *testing.B) {
	l := newList()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%012d", rand.Int63()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ignore the vanishingly rare duplicate from random keys.
		func() {
			defer func() { _ = recover() }()
			l.Insert(keys[i], nil)
		}()
	}
}

func BenchmarkGet(b *testing.B) {
	l := newList()
	const n = 100000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%09d", i))
		l.Insert(keys[i], keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(l, keys[i%n])
	}
}

// BenchmarkRangeWalk is the MemTable side of a Composite RANGELOOKUP: a
// list of internal keys (attribute value, separator, primary key,
// trailer), walked from the seek key of a random attribute value through
// every entry of the next four values, comparing each user key with the
// range's exclusive end.
func BenchmarkRangeWalk(b *testing.B) {
	const values, perValue = 400, 50
	l := New(ikey.Compare)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for _, i := range rng.Perm(values * perValue) {
		seq++
		ck := fmt.Sprintf("u%04d\x00t%06d", i/perValue, rng.Intn(1e6))
		l.Insert(ikey.Make([]byte(ck), seq, ikey.KindSet), nil)
	}
	b.ResetTimer()
	walked := 0
	for i := 0; i < b.N; i++ {
		v := rng.Intn(values - 4)
		seek := ikey.SeekKey([]byte(fmt.Sprintf("u%04d\x00", v)))
		hiExcl := []byte(fmt.Sprintf("u%04d\x01", v+3))
		it := l.NewIterator()
		for it.SeekGE(seek); it.Valid() && bytes.Compare(ikey.UserKey(it.Key()), hiExcl) < 0; it.Next() {
			walked++
		}
	}
	if walked != b.N*4*perValue {
		b.Fatalf("walked %d entries in %d walks, want %d each", walked, b.N, 4*perValue)
	}
}
