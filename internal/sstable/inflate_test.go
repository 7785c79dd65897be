package sstable

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/workload"
)

// enough is zlib's examples/enough.c bound, recomputed: the largest number
// of entries — a root table of 2^root plus one subtable per root prefix, as
// wide as the longest code under it — that any complete prefix code of at
// most n symbols and lengths at most maxLen needs.
//
// In a canonical code the codes longer than root hang under the last s
// root slots, and at every length the new codes take the leftmost open
// nodes, so the o nodes still open at length L are the rightmost o. A
// subtable reaches length L+1 iff it still has an open node at L; with
// w = 2^(L-root) nodes per subtable at L that is ceil(o/w) subtables, each
// adding w entries. Only the sequence of open counts matters, so a search
// over (length, open nodes, symbols left) finds the maximum.
func enough(n, root, maxLen int) int {
	// memo[l][open][left]+1; 0 is unknown.
	memo := make([][][]int, maxLen+1)
	for l := range memo {
		memo[l] = make([][]int, n/2+1)
		for o := range memo[l] {
			memo[l][o] = make([]int, n+1)
		}
	}
	var best func(l, open, left int) int // -1: the open nodes cannot be filled
	best = func(l, open, left int) int {
		if open == 0 {
			return 0
		}
		if l == maxLen || 2*open > left { // an open node needs two more codes
			return -1
		}
		if v := memo[l][open][left]; v != 0 {
			return v - 1
		}
		w := 1 << (l - root)
		grow := (open + w - 1) / w * w
		v := -1
		for c := 0; c <= 2*open && c <= left; c++ { // c codes of length l+1
			if r := best(l+1, 2*open-c, left-c); r >= 0 && grow+r > v {
				v = grow + r
			}
		}
		memo[l][open][left] = v + 1
		return v
	}
	most := 1 << root // every code fits the root
	for s := 1; s <= 1<<root && 2*s <= n; s++ {
		// The first 2^root-s root slots take the fewest codes as aligned
		// power-of-two runs: one code per set bit. Each of the s subtables
		// costs one entry more than the growth best counts.
		short := bits.OnesCount(uint(1<<root - s))
		if r := best(root, s, n-short); short <= n && r >= 0 && 1<<root+s+r > most {
			most = 1<<root + s + r
		}
	}
	return most
}

// TestInflateTableBounds proves the table sizes: the search reproduces
// zlib's published ENOUGH_LENS and ENOUGH_DISTS for its own root widths,
// and gives exactly the array sizes for this decoder's.
func TestInflateTableBounds(t *testing.T) {
	for _, c := range []struct{ n, root, want int }{
		{286, 9, 852}, // zlib inftrees.h: "enough 286 9 15"
		{30, 6, 592},  // "enough 30 6 15"
		{286, litRootBits, litTableSize},
		{30, distRootBits, distTableSize},
	} {
		if got := enough(c.n, c.root, 15); got != c.want {
			t.Errorf("enough %d %d 15 = %d, want %d", c.n, c.root, got, c.want)
		}
	}
}

// tweetEntries returns n table entries holding workload tweet documents,
// the values every benchmark workload stores.
func tweetEntries(n int) []tableEntry {
	g := workload.NewGenerator(workload.Config{Tweets: n, Seed: 1})
	out := make([]tableEntry, 0, n)
	for seq := uint64(1); ; seq++ {
		tw, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, tableEntry{
			ik:  ikey.Make([]byte(tw.ID), seq, ikey.KindSet),
			val: tw.Doc(),
			attrs: []AttrValue{
				{Attr: "UserID", Value: tw.UserID},
				{Attr: "CreationTime", Value: workload.EncodeTime(tw.Creation)},
			},
		})
	}
}

// compressedBlocks returns the deflate payloads of a tweet table's
// compressed data blocks, as the block builder wrote them.
func compressedBlocks(tb testing.TB, blockSize, n int) [][]byte {
	tb.Helper()
	data := buildTableBytes(tb, tweetEntries(n), Options{BlockSize: blockSize, Compression: FlateCompression})
	tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, bm := range tbl.blocks {
		phys := data[bm.offset : bm.offset+uint64(bm.size)]
		if Compression(phys[len(phys)-5]) == FlateCompression {
			out = append(out, phys[:len(phys)-5])
		}
	}
	if len(out) == 0 {
		tb.Fatal("no compressed blocks")
	}
	return out
}

// stdlibInflate is the oracle: compress/flate's reader over the whole input.
func stdlibInflate(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

// checkInflate decodes src with inf, once into an empty buffer and once
// after a prefix no back-reference may reach, and holds both to
// compress/flate: the same bytes where it accepts, an error where it
// rejects. Each is also decoded in steps (inflateSteps), which must give
// the one-shot result: the same bytes, or the same error.
func checkInflate(t *testing.T, inf *inflater, src []byte) []byte {
	t.Helper()
	want, werr := stdlibInflate(src)
	got, err := inf.inflate(nil, src)
	if (err == nil) != (werr == nil) {
		t.Fatalf("inflate err = %v, compress/flate err = %v (input %x)", err, werr, src)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("inflate produced %d bytes differing from compress/flate's %d (input %x)", len(got), len(want), src)
	}
	prefix := []byte("prefix")
	got2, err2 := inf.inflate(prefix, src)
	if (err2 == nil) != (err == nil) || err == nil && !bytes.Equal(got2, append(prefix, got...)) {
		t.Fatalf("inflate after a prefix: err = %v, first err = %v", err2, err)
	}
	for _, head := range [][]byte{nil, prefix} {
		steps, serr := inflateSteps(t, inf, append([]byte(nil), head...), src)
		if serr != err || err == nil && !bytes.Equal(steps, append(append([]byte(nil), head...), got...)) {
			t.Fatalf("inflate in steps after %q: err = %v, one-shot err = %v (input %x)", head, serr, err, src)
		}
	}
	return got
}

// inflateSteps decodes src after dst's bytes in steps, whose output
// limits grow by 1 to 256 bytes as the input's own bytes say, and fails t
// if a step pauses short of its limit.
func inflateSteps(t *testing.T, inf *inflater, dst, src []byte) ([]byte, error) {
	t.Helper()
	inf.start(len(dst))
	for i := 0; ; i++ {
		limit := len(dst) + 1
		if len(src) > 0 {
			limit += int(src[i%len(src)])
		}
		var done bool
		var err error
		if dst, done, err = inf.step(dst, src, limit); done || err != nil {
			return dst, err
		}
		if len(dst) < limit {
			t.Fatalf("step %d paused at %d bytes, short of its limit %d (input %x)", i, len(dst), limit, src)
		}
	}
}

func TestInflateMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var text []byte
	for _, e := range tweetEntries(500) {
		text = append(text, e.val...)
	}
	inputs := map[string]func(n int) []byte{
		"small": func(n int) []byte { // four symbols: long matches, short codes
			p := make([]byte, n)
			for i := range p {
				p[i] = "abcd"[rng.Intn(4)]
			}
			return p
		},
		"large": func(n int) []byte { // every byte value: stored blocks, long codes
			p := make([]byte, n)
			rng.Read(p)
			return p
		},
		"tweets": func(n int) []byte {
			for len(text) < n {
				text = append(text, text...)
			}
			return text[:n]
		},
	}
	inf := new(inflater)
	for _, size := range []int{0, 1, 2, 3, 100, 257, 4096, 32768, 33000, 70000} {
		for name, gen := range inputs {
			in := gen(size)
			for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
				var buf bytes.Buffer
				fw, err := flate.NewWriter(&buf, level)
				if err != nil {
					t.Fatal(err)
				}
				fw.Write(in)
				fw.Close()
				if got := checkInflate(t, inf, buf.Bytes()); !bytes.Equal(got, in) {
					t.Fatalf("%s size %d level %d: round trip differs", name, size, level)
				}
			}
		}
	}
	for _, bs := range []int{512, 4096, 16384} {
		for _, block := range compressedBlocks(t, bs, 2000) {
			checkInflate(t, inf, block)
		}
	}
}

// TestInflateTruncatedPrefixes cuts tweet blocks at every byte: each
// proper prefix is a truncated stream, whatever symbol the cut lands in,
// and must be reported as io.ErrUnexpectedEOF rather than as corruption.
func TestInflateTruncatedPrefixes(t *testing.T) {
	inf := new(inflater)
	var dst []byte
	for _, bs := range []int{4096, 16384} {
		for bi, block := range compressedBlocks(t, bs, 300) {
			for n := 0; n < len(block); n++ {
				var err error
				if dst, err = inf.inflate(dst[:0], block[:n]); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("block size %d, block %d cut to %d of %d bytes: err = %v, want io.ErrUnexpectedEOF",
						bs, bi, n, len(block), err)
				}
			}
		}
	}
}

// TestInflateIntoAnyCapacity decodes each 4 KiB tweet block after a
// 5-byte prefix into buffers with every spare capacity from 0 to 300
// bytes, and 4 KiB and 8 KiB: the output must grow from any starting
// room, keep the prefix and match compress/flate byte for byte.
func TestInflateIntoAnyCapacity(t *testing.T) {
	prefix := []byte("head:")
	spares := []int{4096, 8192}
	for s := 0; s <= 300; s++ {
		spares = append(spares, s)
	}
	inf := new(inflater)
	for bi, block := range compressedBlocks(t, 4096, 1000) {
		want, err := stdlibInflate(block)
		if err != nil {
			t.Fatalf("block %d: compress/flate: %v", bi, err)
		}
		for _, spare := range spares {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got, err := inf.inflate(dst, block)
			if err != nil {
				t.Fatalf("block %d, spare capacity %d: %v", bi, spare, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("block %d, spare capacity %d: output differs from compress/flate", bi, spare)
			}
		}
	}
}

// bitWriter assembles hand-made deflate streams, least significant bit
// first as RFC 1951 packs them.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes a Huffman code, which goes most significant bit first.
func (w *bitWriter) code(c uint16, n uint) *bitWriter {
	return w.bits(uint64(bits.Reverse16(c)>>(16-n)), n)
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical returns the canonical Huffman codes of lengths.
func canonical(lengths []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lengths))
	for s, l := range lengths {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// clenSym is one code-length code symbol of a dynamic header with the
// value of its extra bits.
type clenSym struct{ sym, extra uint8 }

// plainLengths spells lengths as code-length symbols 0-15, one each.
func plainLengths(lengths []uint8) []clenSym {
	out := make([]clenSym, len(lengths))
	for i, l := range lengths {
		out[i] = clenSym{sym: l}
	}
	return out
}

// dynamicHeader writes a final dynamic block's header, spelling the code
// lengths as syms. The code-length code gives symbols 0-15 four bits
// each or, with repeats, 0-12 four bits and 13-18 five.
func dynamicHeader(w *bitWriter, nlit, ndist int, repeats bool, syms []clenSym) {
	var clens [19]uint8
	for s := 0; s < 16; s++ {
		clens[s] = 4
	}
	if repeats { // 13/16 + 6/32 = 1: complete
		for s := 13; s < 19; s++ {
			clens[s] = 5
		}
	}
	w.bits(1, 1).bits(2, 2)
	w.bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(19-4, 4)
	for _, s := range clenOrder {
		w.bits(uint64(clens[s]), 3)
	}
	codes := canonical(clens[:])
	for _, s := range syms {
		w.code(codes[s.sym], uint(clens[s.sym]))
		switch s.sym {
		case 16:
			w.bits(uint64(s.extra), 2)
		case 17:
			w.bits(uint64(s.extra), 3)
		case 18:
			w.bits(uint64(s.extra), 7)
		}
	}
}

// lastCopyBits returns the bit span, from the length code through the
// distance's extra bits, of the last copy in the first block of src. ok
// is false unless that block is dynamic-Huffman and decodes.
func lastCopyBits(src []byte) (start, end int, ok bool) {
	f := new(inflater)
	bb, nb, pos, _ := refill(src, 0, 0, 0)
	if bb>>1&3 != 2 {
		return 0, 0, false
	}
	bb, nb, pos, ok = f.readTables(src, bb>>3, nb-3, pos)
	for ok {
		if nb < 48 {
			bb, nb, pos, _ = refill(src, bb, nb, pos)
		}
		at := 8*pos - int(nb)
		e := litCode(&f.lit, bb)
		bb >>= e & 15
		nb -= uint(e & 15)
		switch e >> kindShift & 15 {
		case kindLiteral:
			continue
		case kindEnd:
			return start, end, true
		case kindCopy:
			extra := uint(e >> 4 & 15)
			d := f.dist[bb>>extra&(1<<distRootBits-1)]
			if d>>kindShift&15 == kindLink {
				d = f.dist[d>>valueShift+uint32(bb>>(extra+distRootBits))&(1<<(d>>4&15)-1)]
			}
			used := extra + uint(d&15) + uint(d>>4&15)
			bb >>= used
			nb -= used
			start, end = at, 8*pos-int(nb)
			continue
		}
		break
	}
	return 0, 0, false
}

// inflateCase is one hand-made stream: a fuzz seed and a rejection test.
type inflateCase struct {
	name string
	src  []byte
	ok   bool
}

func inflateCases(t testing.TB) []inflateCase {
	var cases []inflateCase
	add := func(name string, ok bool, src []byte) {
		cases = append(cases, inflateCase{name, src, ok})
	}

	tweets := compressedBlocks(t, 4096, 300)
	tweet := tweets[0]
	add("tweet-block", true, tweet)
	add("truncated-tail", false, tweet[:len(tweet)-3])
	add("trailing-garbage", true, append(append([]byte(nil), tweet...), 0xde, 0xad, 0xbe, 0xef))
	// A tweet block's payload cut short and deflated again, at the first
	// cut whose last copy straddles the last bit the fast loop reaches
	// with a whole 8-byte load: fewer than eight input bytes remain
	// after its first code and more than that before its last.
	raw, err := stdlibInflate(tweet)
	if err != nil {
		t.Fatal(err)
	}
	for k := len(raw); ; k-- {
		if k == 0 {
			t.Fatal("no cut of a tweet block puts its last copy across the fast loop's bound")
		}
		b := deflate(nil, raw[:k])
		if start, end, ok := lastCopyBits(b); ok && start < 8*(len(b)-8) && end > 8*(len(b)-8) {
			add("tweet-copy-at-fast-bound", true, b)
			break
		}
	}

	stored := func(n, nn uint16, data string) []byte {
		w := new(bitWriter).bits(1, 1).bits(0, 2) // then padding to a byte
		return append(append(w.bytes(), byte(n), byte(n>>8), byte(nn), byte(nn>>8)), data...)
	}
	add("stored", true, stored(5, ^uint16(5), "hello"))
	add("stored-nlen-mismatch", false, stored(5, ^uint16(6), "hello"))
	add("stored-short", false, stored(5, ^uint16(5), "hell"))

	// Fixed codes: literals 0-143 are 8 bits from 0x30, 256-279 are 7
	// bits from 0, 280-287 are 8 bits from 0xc0; distances 5 bits.
	fixed := func(body func(w *bitWriter)) []byte {
		w := new(bitWriter).bits(1, 1).bits(1, 2)
		body(w)
		return w.bytes()
	}
	lit := func(w *bitWriter, c byte) { w.code(0x30+uint16(c), 8) }
	add("fixed", true, fixed(func(w *bitWriter) {
		lit(w, 'a')
		lit(w, 'b')
		w.code(2, 7).code(1, 5) // length 4 (symbol 258), distance 2
		w.code(0, 7)
	}))
	add("fixed-lit-286", false, fixed(func(w *bitWriter) { lit(w, 'a'); w.code(0xc0+6, 8); w.code(0, 7) }))
	add("fixed-dist-30", false, fixed(func(w *bitWriter) { lit(w, 'a'); w.code(1, 7).code(30, 5); w.code(0, 7) }))
	add("fixed-dist-too-far", false, fixed(func(w *bitWriter) { lit(w, 'a'); w.code(1, 7).code(1, 5); w.code(0, 7) }))
	add("btype-3", false, new(bitWriter).bits(1, 1).bits(3, 2).bits(0, 16).bytes())

	// Dynamic blocks. lit15: 'a'..'n' take lengths 1..14, 'o' and the end
	// of block 15 bits each — a complete code with 15-bit codes.
	lit15 := make([]uint8, 257)
	for i := 0; i < 14; i++ {
		lit15[int('a')+i] = uint8(i + 1)
	}
	lit15['o'], lit15[256] = 15, 15
	dynamic := func(litLens, distLens []uint8, body func(w *bitWriter, lc, dc []uint16)) []byte {
		w := new(bitWriter)
		dynamicHeader(w, len(litLens), len(distLens), false, plainLengths(append(append([]uint8(nil), litLens...), distLens...)))
		body(w, canonical(litLens), canonical(distLens))
		return w.bytes()
	}
	add("dynamic-15-bit-codes", true, dynamic(lit15, []uint8{0}, func(w *bitWriter, lc, _ []uint16) {
		for _, c := range "onmaob" {
			w.code(lc[c], uint(lit15[c]))
		}
		w.code(lc[256], 15)
	}))
	add("empty-distance-tree", true, dynamic(lit15, []uint8{0}, func(w *bitWriter, lc, _ []uint16) {
		w.code(lc['a'], 1).code(lc[256], 15)
	}))
	// 'a' 1 bit, end of block and length 3 two bits; one distance code of length 1.
	lit1 := make([]uint8, 258)
	lit1['a'], lit1[256], lit1[257] = 1, 2, 2
	add("single-length-1-code", true, dynamic(lit1, []uint8{1}, func(w *bitWriter, lc, dc []uint16) {
		w.code(lc['a'], 1).code(lc[257], 2).code(dc[0], 1).code(lc[256], 2)
	}))
	add("single-length-1-code-other-half", false, dynamic(lit1, []uint8{1}, func(w *bitWriter, lc, _ []uint16) {
		w.code(lc['a'], 1).code(lc[257], 2).code(1, 1).code(lc[256], 2)
	}))
	add("empty-distance-tree-used", false, dynamic(lit1, []uint8{0}, func(w *bitWriter, lc, _ []uint16) {
		w.code(lc['a'], 1).code(lc[257], 2).bits(0, 8).code(lc[256], 2)
	}))
	over := append([]uint8(nil), lit1...)
	over['b'] = 1
	add("over-subscribed", false, dynamic(over, []uint8{1}, func(w *bitWriter, lc, _ []uint16) {
		w.code(lc['a'], 1).bits(0, 16)
	}))
	under := append([]uint8(nil), lit1...)
	under[257] = 3
	add("under-subscribed", false, dynamic(under, []uint8{1}, func(w *bitWriter, lc, _ []uint16) {
		w.code(lc['a'], 1).bits(0, 16)
	}))
	hlit := func(nlit, ndist int) []byte {
		w := new(bitWriter).bits(1, 1).bits(2, 2)
		return w.bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(0, 60).bytes()
	}
	add("hlit-287", false, hlit(287, 1))
	add("hdist-31", false, hlit(257, 31))
	repeats := func(syms []clenSym) []byte {
		w := new(bitWriter)
		dynamicHeader(w, 257, 1, true, syms)
		return w.bits(0, 32).bytes()
	}
	add("repeat-16-first", false, repeats([]clenSym{{16, 0}, {18, 127}, {18, 127}}))
	add("repeat-past-end", false, repeats([]clenSym{{1, 0}, {1, 0}, {18, 127}, {18, 127}, {18, 127}}))
	return cases
}

// TestInflateRejects holds each hand-made stream to its expected verdict
// and to compress/flate.
func TestInflateRejects(t *testing.T) {
	inf := new(inflater)
	for _, c := range inflateCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if _, err := stdlibInflate(c.src); (err == nil) != c.ok {
				t.Fatalf("compress/flate err = %v, case expects ok=%v", err, c.ok)
			}
			checkInflate(t, inf, c.src)
			if _, err := inf.inflate(nil, c.src); c.name == "truncated-tail" && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated stream: err = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// FuzzInflate is the differential against compress/flate: the same bytes
// where it accepts, an error where it rejects, never a panic. Seeds are in
// testdata/fuzz/FuzzInflate (one per inflateCases stream).
func FuzzInflate(f *testing.F) {
	inf := new(inflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		checkInflate(t, inf, src)
	})
}
