package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"leveldbpp/internal/ikey"
)

// TestOpenTableNeverPanicsOnGarbage feeds random byte blobs to OpenTable;
// it must reject them with errors, never panic or accept them.
func TestOpenTableNeverPanicsOnGarbage(t *testing.T) {
	prop := func(blob []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, err := OpenTable(bytes.NewReader(blob), int64(len(blob)), nil)
		return err != nil // garbage must not open cleanly
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTableMutatedRealTable flips random bytes in a real table file;
// every mutation must either fail at open, fail during iteration, or —
// if it happens to hit slack the checksums don't cover (there is none,
// but filters are probabilistic) — still never panic.
func TestOpenTableMutatedRealTable(t *testing.T) {
	var buf bytes.Buffer
	b := NewBuilder(&buf, Options{BlockSize: 256, BitsPerKey: 10, SecondaryAttrs: []string{"a"}})
	for i := 0; i < 300; i++ {
		ik := ikey.Make([]byte(fmt.Sprintf("k%04d", i)), uint64(i+1), ikey.KindSet)
		err := b.Add(ik, []byte("value-value-value"), []AttrValue{{Attr: "a", Value: fmt.Sprintf("v%02d", i%10)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	size, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), orig...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			tbl, err := OpenTable(bytes.NewReader(data), size, nil)
			if err != nil {
				return // detected at open
			}
			it := tbl.NewIterator(false)
			for it.Next() {
				_ = it.Key()
				_ = it.Value()
			}
			_ = it.Err()
			// Point reads must also be panic-free.
			_, _, _, _ = tbl.GetWith(&GetScratch{}, []byte("k0123"))
			_ = tbl.SecondaryCandidates("a", "v03", nil)
		}()
	}
}

// TestTruncatedTablePrefixes opens every prefix of a real table; all must
// fail cleanly.
func TestTruncatedTablePrefixes(t *testing.T) {
	var buf bytes.Buffer
	b := NewBuilder(&buf, Options{BlockSize: 128})
	for i := 0; i < 50; i++ {
		ik := ikey.Make([]byte(fmt.Sprintf("k%04d", i)), uint64(i+1), ikey.KindSet)
		if err := b.Add(ik, []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := OpenTable(bytes.NewReader(full[:n]), int64(n), nil); err == nil {
			t.Fatalf("truncated table of %d/%d bytes opened cleanly", n, len(full))
		}
	}
}
