package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"io"
	"math/rand"
	"time"
)

// The box this benchmark runs on changes speed by 30–40 % over minutes (a
// shared host): ten runs of one commit then spread by 12–25 % between their
// quartiles on every timing, and two sets of runs differ by more than any
// bound worth having. A reference slice is a fixed piece of compute-bound
// work that owes nothing to the engine but resembles what the engine spends
// its time on — deflate, inflate and JSON-decode tweet-sized data — with
// reused codecs, so that it allocates next to nothing and the collector's
// state cannot leak into it. It is timed beside every set-up and every
// segment, and timings are reported at reference speed: a segment's wall time
// and every latency sample in it are multiplied by refNominal ÷ the mean of
// the slices just before and just after that segment. Measured on ten seeds of
// wh-lazy in a noisy period, that brought the quartile spreads from 12–25 %
// to 5–9 % and (max−min)/median from 35–41 % to 9–16 %; in a quiet period it
// changes little. Pointer chasing, file reads, channel hand-offs and
// allocation-heavy work do not track the box's speed and are left out.
type reference struct {
	blocks [][]byte
	packed bytes.Buffer
	src    bytes.Reader
	w      *flate.Writer
	r      io.ReadCloser
}

// refNominal is a slice's time on the sizing box in a quiet period, so that
// reference-speed numbers read like that box's.
const refNominal = 12500 * time.Microsecond

var refDoc = []byte(`{"UserID":"u0000012","CreationTime":"0000012345","Text":"abcdefghijklmnopqrstuvwxyz      ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789#@abcdefghijklmnopqrstuvwxyz      ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789#@abcdefghijklmnopqrstuvwxyz"}`)

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "abcdefghijklmnopqrstuvwxyz      ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789#@"
	ref := &reference{r: flate.NewReader(bytes.NewReader(nil))}
	ref.w, _ = flate.NewWriter(&ref.packed, flate.BestSpeed) // the level is valid
	for b := 0; b < 16; b++ {
		block := make([]byte, 4096)
		for i := range block {
			block[i] = alphabet[rng.Intn(len(alphabet))]
		}
		ref.blocks = append(ref.blocks, block)
	}
	return ref
}

// slice does the reference work once and returns how long it took. Errors
// cannot occur: every write goes to a bytes.Buffer, every read comes from
// what was just written.
func (ref *reference) slice() time.Duration {
	t0 := time.Now()
	for round := 0; round < 4; round++ {
		for _, block := range ref.blocks {
			ref.packed.Reset()
			ref.w.Reset(&ref.packed)
			ref.w.Write(block)
			ref.w.Close()
			for i := 0; i < 3; i++ {
				ref.src.Reset(ref.packed.Bytes())
				ref.r.(flate.Resetter).Reset(&ref.src, nil)
				io.Copy(io.Discard, ref.r)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		var doc struct{ UserID, CreationTime, Text string }
		json.Unmarshal(refDoc, &doc)
	}
	return time.Since(t0)
}

// atReference is the factor that turns a wall time measured between two
// slices into a time at reference speed.
func atReference(before, after time.Duration) float64 {
	return ratio(float64(refNominal), float64(before+after)/2)
}
