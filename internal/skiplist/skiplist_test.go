package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newList() *List { return New(bytes.Compare) }

func TestEmpty(t *testing.T) {
	l := newList()
	if _, ok := l.Get([]byte("x")); ok {
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
		v, ok := l.Get([]byte(fmt.Sprintf("k%06d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := l.Get([]byte("missing")); ok {
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
		l.Get(keys[i%n])
	}
}
