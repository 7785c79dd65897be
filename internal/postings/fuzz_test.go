package postings

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// listFromFuzz derives a structured posting list from raw fuzz bytes:
// each byte contributes one entry whose key is drawn from a small
// printable alphabet (JSON-safe, so v1 and v2 can represent the same
// list), with sequence numbers descending-by-default but occasionally
// jumping up, which makes the list ill-formed: Cursor.Prime rejects it.
func listFromFuzz(data []byte) List {
	var l List
	seq := uint64(len(data)) * 7
	for i, b := range data {
		key := fmt.Sprintf("k%d", b%13)
		if b%17 == 0 {
			key = "" // empty key
		}
		switch b % 5 {
		case 0:
			seq += uint64(b) // out-of-order jump
		default:
			if seq > uint64(b%3) {
				seq -= uint64(b%3) + 1
			}
		}
		l = append(l, Entry{Key: key, Seq: seq, Del: b%7 == 0})
		_ = i
	}
	return l
}

// newestFirst reports whether every fragment's seqs never increase.
func newestFirst(frags []List) bool {
	for _, l := range frags {
		for i := 1; i < len(l); i++ {
			if l[i].Seq > l[i-1].Seq {
				return false
			}
		}
	}
	return true
}

func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{17, 17, 0, 255, 128, 64, 5, 5, 5})
	f.Add(bytes.Repeat([]byte{35, 7, 0}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := listFromFuzz(data)

		// Both encodings must round-trip exactly.
		for _, fm := range encoders {
			got, err := Decode(fm.encode(l))
			if err != nil {
				t.Fatalf("%s round trip: %v", fm.name, err)
			}
			if len(l) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, l) {
				t.Fatalf("%s round trip = %+v want %+v", fm.name, got, l)
			}
		}

		// Priming must fail with ErrCorrupt exactly when the list is out
		// of newest-first order, in either encoding.
		for _, fm := range encoders {
			var c Cursor
			if err := c.Prime(fm.encode(l)); (err == nil) != newestFirst([]List{l}) || err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s Prime err = %v, newest first %v", fm.name, err, newestFirst([]List{l}))
			}
		}

		// AppendAdd must match the decoded-path refAdd for both encodings.
		if len(l) > 0 {
			key, seq := l[0].Key, l[0].Seq+100
			want := refAdd(l, key, seq, false)
			for _, fm := range encoders {
				out, _, err := AppendAdd(nil, fm.encode(l), key, seq, false)
				if err != nil {
					t.Fatalf("AppendAdd %s: %v", fm.name, err)
				}
				got, err := Decode(out)
				if err != nil {
					t.Fatalf("decode AppendAdd %s: %v", fm.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s AppendAdd = %+v want %+v", fm.name, got, want)
				}
			}
		}
	})
}

func FuzzPostingsGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{MagicV2})
	f.Add([]byte{MagicV2, 0x80})
	f.Add([]byte{MagicV2, 0x04, 0x02, 'h', 'i'})
	f.Add([]byte(`[{"k":"a","s":1}]`))
	f.Add([]byte(`[{"k":"a","s"`))
	f.Add([]byte{MagicV2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of the decode entry points may panic on arbitrary bytes;
		// they either succeed or return an error.
		l, err := Decode(data)
		var c Cursor
		cerr := c.Reset(data)
		var n int
		for c.Next() {
			n++
		}
		if cerr == nil {
			cerr = c.Err()
		}
		if (err == nil) != (cerr == nil) {
			t.Fatalf("Decode err=%v but Cursor err=%v", err, cerr)
		}
		if err == nil && n != len(l) {
			t.Fatalf("Cursor yielded %d entries, Decode %d", n, len(l))
		}

		if perr := c.Prime(data); (perr == nil) != (err == nil && newestFirst([]List{l})) {
			t.Fatalf("Decode err=%v but Prime err=%v", err, perr)
		}
		if _, _, aerr := AppendAdd(nil, data, "k", 1, false); (aerr == nil) != (err == nil) {
			t.Fatalf("Decode err=%v but AppendAdd err=%v", err, aerr)
		}
	})
}
