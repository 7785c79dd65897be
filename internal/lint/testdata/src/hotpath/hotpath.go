// Package hotpath exercises the hotpath analyzer: //lsm:hotpath functions
// must not read the clock, format strings, build a flate codec, call
// io.ReadAll, encoding/json or sort.Slice/Sort, or grow fresh allocations.
package hotpath

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

type cursor struct{ buf []byte }

//lsm:hotpath
func bad(in []byte) {
	t0 := time.Now() // want "time.Now in //lsm:hotpath bad"
	_ = t0
	_ = fmt.Sprintf("%d", len(in)) // want "fmt string formatting allocates in //lsm:hotpath bad"
	var out []byte
	out = append(out, in...) // want "growing append in //lsm:hotpath bad"
	_ = out
}

//lsm:hotpath
func good(c *cursor, in []byte) {
	c.buf = append(c.buf[:0], in...) // re-sliced scratch: ok
	c.buf = append(c.buf, in...)     // parameter-rooted scratch: ok
	if len(in) > 1<<20 {
		panic(fmt.Sprintf("hotpath: oversized input %d", len(in))) // corruption panic: off the hot path
	}
	var out []byte
	out = append(out, in...) //lsm:allocok
	_ = out
}

//lsm:hotpath
func (c *cursor) method(in []byte) {
	c.buf = append(c.buf, in...) // receiver-rooted scratch: ok
}

// A pool's New func is a function literal in a package-level variable,
// not part of any hot path: it is where the constructors belong.
var writers = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return fw
}}

//lsm:hotpath
func badCodec(c *cursor, in []byte) error {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed) // want "flate codec built per call in //lsm:hotpath badCodec"
	if err != nil {
		return err
	}
	if _, err := fw.Write(in); err != nil {
		return err
	}
	fr := flate.NewReader(bytes.NewReader(in)) // want "flate codec built per call in //lsm:hotpath badCodec"
	c.buf, err = io.ReadAll(fr)                // want "io.ReadAll in //lsm:hotpath badCodec"
	return err
}

//lsm:hotpath
func goodCodec(c *cursor, src *bytes.Reader, fr io.Reader, in []byte) error {
	fw := writers.Get().(*flate.Writer) // pooled: ok
	fw.Reset(io.Discard)
	if _, err := fw.Write(in); err != nil {
		return err
	}
	writers.Put(fw)
	src.Reset(in)
	if err := fr.(flate.Resetter).Reset(src, nil); err != nil { // reset in place: ok
		return err
	}
	_, err := io.ReadFull(fr, c.buf) // reads into the caller's buffer: ok
	return err
}

//lsm:hotpath
func badJSON(c *cursor, in []byte) error {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(in, &doc); err != nil { // want "encoding/json in //lsm:hotpath badJSON"
		return err
	}
	out, err := json.Marshal(doc) // want "encoding/json in //lsm:hotpath badJSON"
	c.buf = out
	if err != nil {
		return err
	}
	return json.NewDecoder(bytes.NewReader(in)).Decode(&doc) // want "encoding/json in //lsm:hotpath badJSON"
}

//lsm:hotpath
func goodJSON(in []byte) bool {
	return json.Valid(in) // a scan, no reflection: ok
}

type bySeq []uint64

func (s bySeq) Len() int           { return len(s) }
func (s bySeq) Less(i, j int) bool { return s[i] > s[j] }
func (s bySeq) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

//lsm:hotpath
func badSort(seqs []uint64) {
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })       // want "sort in //lsm:hotpath badSort"
	sort.SliceStable(seqs, func(i, j int) bool { return seqs[i] > seqs[j] }) // want "sort in //lsm:hotpath badSort"
	sort.Sort(bySeq(seqs))                                                   // want "sort in //lsm:hotpath badSort"
}

//lsm:hotpath
func goodSort(seqs []uint64) bool {
	// A check and a binary search build no swapper: ok.
	return sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] > seqs[j] }) ||
		sort.SearchInts(nil, 0) == 0
}

func unannotated(in []byte) []byte {
	_ = time.Now() // cold code: ok
	var doc map[string]string
	_ = json.Unmarshal(in, &doc)
	out, _ := io.ReadAll(flate.NewReader(bytes.NewReader(in)))
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return append(out, in...)
}
