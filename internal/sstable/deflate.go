package sstable

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// deflate.go encodes table blocks as DEFLATE (RFC 1951) streams. For every
// input it emits exactly the bytes compress/flate's BestSpeed Writer emits
// for one Write and Close (FuzzDeflate holds it to that), so tables stay
// byte-identical to the ones that writer built. It keeps that writer's
// algorithm and changes how it runs: the block is whole in memory, so
// nothing is copied into a window; Huffman code lengths come from a
// two-queue construction over counting-sorted frequencies, with
// compress/flate's package-merge kept only for codes that would otherwise
// be too long; canonical codes are assigned in one pass over the symbols;
// and bits go through one 64-bit accumulator straight into the output.
//
// The stream compress/flate writes: the input cut into 65 535-byte chunks,
// each one non-final block, then an empty final stored block. A chunk of at
// most 16 bytes is stored, one under 128 bytes is coded as literals only;
// any other is run through the match finder, and coded as literals only
// if matches removed less than a sixteenth of it. Either Huffman block is
// stored instead when that is smaller than it plus a sixteenth.

const (
	// maxStoreBlockSize is a stored block's limit and the chunk size.
	maxStoreBlockSize = 65535
	maxMatchOffset    = 1 << 15
	maxMatchLength    = 258

	// The match finder's hash table of 4-byte values.
	matchTableBits  = 14
	matchTableSize  = 1 << matchTableBits
	matchTableShift = 32 - matchTableBits

	// inputMargin is how close to a chunk's end the match search stops.
	inputMargin = 16 - 1
	// offsetReset bounds the table's int32 offsets: past it they are
	// rebased before they can overflow.
	offsetReset = math.MaxInt32 - 2*maxStoreBlockSize

	endOfBlock = 256
	numCLCodes = 19 // code-length codes
	badCode    = 255
	// The match finder cuts a chunk into sequences, each a run of literals
	// and the match after it, packed in a uint64: the run's length in bits
	// 32-47, the match's length in 48-56 and, in the low 32 bits, matchFlag
	// and the match's length code in bits 26-30, distance code in 21-25,
	// length extra bits in 16-20 and distance extra bits in 0-12. A chunk's
	// last sequence has no match.
	matchFlag = 1 << 31
)

// The extra bits that follow each length code (literal/length symbol less
// 257) and each distance code, for the encoder and the inflater. Both
// arrays have 32 entries so a 5-bit code indexes them unchecked; length
// code 28 (length 258) has none.
var lengthExtra, offsetExtra = func() (l, o [32]uint8) {
	for c := 8; c < 28; c++ {
		l[c] = uint8(c-4) >> 2
	}
	for c := 2; c < maxDistCodes; c++ {
		o[c] = uint8(c-2) >> 1
	}
	return l, o
}()

// lengthCodes maps a match length less 3 to its length code.
var lengthCodes [256]uint8

func init() {
	xl := 0
	for lc := 0; lc < 28; lc++ {
		for i := 0; i < 1<<lengthExtra[lc]; i++ {
			lengthCodes[xl] = uint8(lc)
			xl++
		}
	}
	lengthCodes[255] = 28 // length 258 has a code of its own; 27 stops at 257
}

// offsetCode returns the distance code of a match distance less 1.
func offsetCode(xo uint32) uint32 {
	if xo < 4 {
		return xo
	}
	l := uint32(bits.Len32(xo))
	return 2*l - 2 + xo>>(l-2)&1
}

// hcode is one symbol's Huffman code as it goes on the wire: bit-reversed
// (codes are sent most significant bit first into a stream packed least
// significant bit first) and its length.
type hcode struct{ code, len uint16 }

// matchEntry is a hash-table slot: the 4 bytes at a position and that
// position plus the table's base offset.
type matchEntry struct {
	val    uint32
	offset int32
}

// deflater is the encoder's reusable state. Blocks borrow one from
// deflaters for a single call, so nothing in it outlives a stream except
// the match table, whose stale entries the base offset invalidates.
type deflater struct {
	table [matchTableSize]matchEntry
	// cur is the base offset: a slot whose offset less cur is a position of
	// the current chunk (negative: of the chunk before it). Every stream
	// starts it past the reach of the last, instead of clearing the table.
	cur  int32
	seqs []uint64

	litFreq  [maxLitCodes]int32
	offFreq  [maxDistCodes]int32
	clenFreq [numCLCodes]int32
	lit      [maxLitCodes]hcode
	off      [maxDistCodes]hcode
	clen     [numCLCodes]hcode
	// codegen holds the run-length coded code lengths of a dynamic header,
	// each of symbols 16-18 followed by its repeat count, ended by badCode.
	codegen [maxLitCodes + maxDistCodes + 1]uint8
	huff    huffScratch
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// deflate appends to dst the DEFLATE stream of src that compress/flate's
// BestSpeed writer produces for Write(src) and Close.
//
//lsm:hotpath
func deflate(dst, src []byte) []byte {
	d := deflaters.Get().(*deflater)
	dst = d.deflate(dst, src)
	deflaters.Put(d)
	return dst
}

func (d *deflater) deflate(dst, src []byte) []byte {
	w := bitSink{out: dst[:cap(dst)], pos: len(dst)}
	d.cur += maxMatchOffset + 1 // every slot is now out of reach
	if d.cur >= offsetReset {
		d.shiftOffsets(false)
	}
	for start := 0; start < len(src); start += maxStoreBlockSize {
		end := min(start+maxStoreBlockSize, len(src))
		p := src[start:end]
		switch {
		case len(p) <= 16:
			w.stored(p, false)
		case len(p) < 128:
			d.literalBlock(&w, p)
		default:
			if n, tokens := d.findMatches(src, start, end); tokens > len(p)-len(p)>>4 {
				d.literalBlock(&w, p)
			} else {
				d.matchBlock(&w, p, d.seqs[:n])
			}
		}
	}
	w.stored(nil, true)
	return w.out[:w.pos]
}

// shiftOffsets rebases the table to cur = maxMatchOffset+1. With history
// (a chunk before the current one in this stream) the slots still in reach
// keep their positions; otherwise every slot is emptied.
func (d *deflater) shiftOffsets(history bool) {
	if !history {
		clear(d.table[:])
	} else {
		for i := range d.table {
			d.table[i].offset = max(d.table[i].offset-d.cur+maxMatchOffset+1, 0)
		}
	}
	d.cur = maxMatchOffset + 1
}

func matchHash(u uint32) uint32 { return u * 0x1e35a7bd >> matchTableShift }

// findMatches is compress/flate's deflateFast.encode over the chunk
// src[start:end] (at least 128 bytes): it cuts the chunk into sequences in
// d.seqs, counts their symbols in d.litFreq and d.offFreq, and returns the
// number of sequences and of tokens (literals and matches). A match may
// reach back into the previous chunk, but extends only up to the chunk's
// end.
func (d *deflater) findMatches(src []byte, start, end int) (nseq, tokens int) {
	if d.cur >= offsetReset {
		d.shiftOffsets(start > 0)
	}
	c := src[start:end]
	if cap(d.seqs) < len(c)/4+1 {
		d.seqs = make([]uint64, len(c)/4+1) // a match takes at least 4 bytes
	}
	seqs := d.seqs[:len(c)/4+1]
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	litFreq, offFreq := &d.litFreq, &d.offFreq
	matched := 0 // bytes the matches cover

	sLimit := int32(len(c) - inputMargin)
	nextEmit, s := int32(0), int32(0)
	cv := binary.LittleEndian.Uint32(c)
	nextHash := matchHash(cv)
	for {
		// Snappy's skip heuristic: after 32 positions without a match, look
		// at every other one, after 32 more at every third, and so on.
		skip := int32(32)
		nextS := s
		var cand matchEntry
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > sLimit {
				goto remainder
			}
			cand = d.table[nextHash&(matchTableSize-1)]
			now := binary.LittleEndian.Uint32(c[nextS:])
			d.table[nextHash&(matchTableSize-1)] = matchEntry{offset: s + d.cur, val: cv}
			nextHash = matchHash(now)
			if s-(cand.offset-d.cur) <= maxMatchOffset && cv == cand.val {
				break
			}
			cv = now
		}
		for _, b := range c[nextEmit:s] {
			litFreq[b]++
		}
		run := uint64(s-nextEmit) << 32

		// Emit the match at s, then keep matching for as long as the bytes
		// right after one match start another.
		for {
			s += 4
			t := cand.offset - d.cur + 4 // may be negative: in the previous chunk
			a := src[start+int(s) : start+int(min(s+maxMatchLength-4, int32(len(c))))]
			l := int32(sharedPrefixLen(a, src[start+int(t):]))
			xl, xo := uint32(l+4-3), uint32(s-t-1)
			lc, oc := uint32(lengthCodes[xl]), offsetCode(xo)
			seqs[nseq] = run | uint64(l+4)<<48 | uint64(matchFlag|lc<<26|oc<<21|
				(xl&(1<<lengthExtra[lc]-1))<<16|xo&(1<<offsetExtra[oc]-1))
			nseq++
			run = 0
			matched += int(l + 4)
			litFreq[endOfBlock+1+lc]++
			offFreq[oc]++
			s += l
			nextEmit = s
			if s >= sLimit {
				goto remainder
			}

			// Index s-1 and s, then look for a match at s.
			x := binary.LittleEndian.Uint64(c[s-1:])
			prevHash := matchHash(uint32(x))
			d.table[prevHash&(matchTableSize-1)] = matchEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := matchHash(uint32(x))
			cand = d.table[currHash&(matchTableSize-1)]
			d.table[currHash&(matchTableSize-1)] = matchEntry{offset: d.cur + s, val: uint32(x)}
			if s-(cand.offset-d.cur) > maxMatchOffset || uint32(x) != cand.val {
				cv = uint32(x >> 8)
				nextHash = matchHash(cv)
				s++
				break
			}
		}
	}

remainder:
	for _, b := range c[nextEmit:] {
		litFreq[b]++
	}
	seqs[nseq] = uint64(len(c)-int(nextEmit)) << 32
	nseq++
	litFreq[endOfBlock] = 1
	d.cur += int32(len(c))
	return nseq, len(c) - matched + nseq - 1
}

// literalBlock writes p as literals under a dynamic code fitted to its byte
// histogram, or stored when that code saves less than a sixteenth
// (compress/flate's writeBlockHuff).
func (d *deflater) literalBlock(w *bitSink, p []byte) {
	clear(d.litFreq[:])
	for _, b := range p {
		d.litFreq[b]++
	}
	d.litFreq[endOfBlock] = 1
	d.huff.build(d.lit[:], d.litFreq[:], 15)
	// One distance code of one bit, never used; compress/flate counts that
	// bit in the block's size.
	d.off[0] = hcode{0, 1}
	const numLit, numOff = endOfBlock + 1, 1
	header, numCL := d.prepareHeader(numLit, numOff)
	size := header + codeBits(d.litFreq[:], d.lit[:]) + 1
	if (len(p)+5)*8 < size+size>>4 {
		w.stored(p, false)
		return
	}
	w.reserve(size)
	d.writeHeader(w, numLit, numOff, numCL)
	all := [1]uint64{uint64(len(p)) << 32} // one run of literals
	w.writeSequences(p, all[:], &d.lit, &d.off)
	w.writeCode(d.lit[endOfBlock])
}

// matchBlock writes p as findMatches cut it under dynamic codes, or stored
// when they save less than a sixteenth (compress/flate's
// writeBlockDynamic).
func (d *deflater) matchBlock(w *bitSink, p []byte, seqs []uint64) {
	numLit := maxLitCodes
	for d.litFreq[numLit-1] == 0 {
		numLit--
	}
	numOff := maxDistCodes
	for numOff > 0 && d.offFreq[numOff-1] == 0 {
		numOff--
	}
	if numOff == 0 { // a dynamic header must code at least one distance
		d.offFreq[0] = 1
		numOff = 1
	}
	d.huff.build(d.lit[:], d.litFreq[:], 15)
	d.huff.build(d.off[:], d.offFreq[:], 15)
	header, numCL := d.prepareHeader(numLit, numOff)
	size := header + codeBits(d.litFreq[:], d.lit[:]) + codeBits(d.offFreq[:], d.off[:])
	if (len(p)+5)*8 < size+size>>4 {
		w.stored(p, false)
		return
	}
	extra := 0
	for lc := 8; lc < 28; lc++ {
		extra += int(d.litFreq[endOfBlock+1+lc]) * int(lengthExtra[lc])
	}
	for oc := 4; oc < maxDistCodes; oc++ {
		extra += int(d.offFreq[oc]) * int(offsetExtra[oc])
	}
	w.reserve(size + extra)
	d.writeHeader(w, numLit, numOff, numCL)
	w.writeSequences(p, seqs, &d.lit, &d.off)
	w.writeCode(d.lit[endOfBlock])
}

// codeBits returns the bits the symbols counted in freq take under codes.
func codeBits(freq []int32, codes []hcode) int {
	n := 0
	for i, f := range freq {
		n += int(f) * int(codes[i].len)
	}
	return n
}

// prepareHeader run-length codes the lengths of the first numLit
// literal/length and numOff distance codes into d.codegen, builds d.clen,
// the code for that, and returns the header's size in bits and how many
// code-length code lengths it lists (compress/flate's generateCodegen and
// dynamicSize).
func (d *deflater) prepareHeader(numLit, numOff int) (size, numCL int) {
	cg := d.codegen[:]
	for i := range numLit {
		cg[i] = uint8(d.lit[i].len)
	}
	for i := range numOff {
		cg[numLit+i] = uint8(d.off[i].len)
	}
	cg[numLit+numOff] = badCode
	freq := &d.clenFreq
	clear(freq[:])
	// Rewrite cg in place: the output never overtakes the input.
	out, run, count := 0, cg[0], 1
	for in := 1; run != badCode; in++ {
		next := cg[in]
		if next == run {
			count++
			continue
		}
		if run != 0 {
			cg[out] = run
			out++
			freq[run]++
			count--
			for count >= 3 {
				n := min(count, 6)
				cg[out], cg[out+1] = 16, uint8(n-3)
				out += 2
				freq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(count, 138)
				cg[out], cg[out+1] = 18, uint8(n-11)
				out += 2
				freq[18]++
				count -= n
			}
			if count >= 3 {
				cg[out], cg[out+1] = 17, uint8(count-3)
				out += 2
				freq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			cg[out] = run
			out++
			freq[run]++
		}
		run, count = next, 1
	}
	cg[out] = badCode

	d.huff.build(d.clen[:], freq[:], 7)
	numCL = numCLCodes
	for numCL > 4 && freq[clenOrder[numCL-1]] == 0 {
		numCL--
	}
	size = 3 + 5 + 5 + 4 + 3*numCL + codeBits(freq[:], d.clen[:]) +
		int(freq[16])*2 + int(freq[17])*3 + int(freq[18])*7
	return size, numCL
}

// writeHeader writes the header of a non-final dynamic block that
// prepareHeader prepared.
func (d *deflater) writeHeader(w *bitSink, numLit, numOff, numCL int) {
	w.bits(2<<1|uint64(numLit-257)<<3|uint64(numOff-1)<<8|uint64(numCL-4)<<13, 17)
	for _, s := range clenOrder[:numCL] {
		w.bits(uint64(d.clen[s].len), 3)
	}
	for i := 0; d.codegen[i] != badCode; i++ {
		s := d.codegen[i]
		w.writeCode(d.clen[s])
		switch s {
		case 16:
			i++
			w.bits(uint64(d.codegen[i]), 2)
		case 17:
			i++
			w.bits(uint64(d.codegen[i]), 3)
		case 18:
			i++
			w.bits(uint64(d.codegen[i]), 7)
		}
	}
}

// bitSink writes a DEFLATE bit stream, least significant bit first, into
// out: the bytes before pos are final and the n < 8 bits of acc follow
// them. Every write stores all eight bytes of acc at pos, so a block first
// reserves its size plus eight bytes of slack.
type bitSink struct {
	out []byte // len(out) == cap(out)
	pos int
	acc uint64
	n   uint
}

// reserve makes room for nbits more bits.
func (w *bitSink) reserve(nbits int) {
	if need := w.pos + (int(w.n)+nbits+7)>>3 + 8; need > len(w.out) {
		// The partial byte at pos is dropped; acc still holds it and the
		// next write stores it again.
		w.out = slices.Grow(w.out[:w.pos], need-w.pos)
		w.out = w.out[:cap(w.out)]
	}
}

// bits writes the low nb bits of v, nb <= 56.
func (w *bitSink) bits(v uint64, nb uint) {
	w.acc |= v << w.n
	w.n += nb
	binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	w.pos += int(w.n >> 3)
	w.acc >>= w.n &^ 7
	w.n &= 7
}

func (w *bitSink) writeCode(c hcode) { w.bits(uint64(c.code), uint(c.len)) }

// stored writes p as a stored block: the 3-bit block header, zero bits to
// the next byte, LEN, NLEN and p itself. It reserves its own room.
func (w *bitSink) stored(p []byte, final bool) {
	w.reserve(3 + 7 + 32 + 8*len(p))
	h := uint64(0)
	if final {
		h = 1
	}
	w.bits(h, 3)
	w.pos += int(w.n+7) >> 3 // the partial byte is stored, zero-padded
	w.acc, w.n = 0, 0
	binary.LittleEndian.PutUint16(w.out[w.pos:], uint16(len(p)))
	binary.LittleEndian.PutUint16(w.out[w.pos+2:], ^uint16(len(p)))
	w.pos += 4 + copy(w.out[w.pos+4:], p)
}

// writeSequences writes the codes of p as seqs cut it: each sequence's
// literals, then its match's length code, length extra bits, distance code
// and distance extra bits.
//
//lsm:hotpath
func (w *bitSink) writeSequences(p []byte, seqs []uint64, lit *[maxLitCodes]hcode, off *[maxDistCodes]hcode) {
	out, pos, acc, n := w.out, w.pos, w.acc, w.n
	flush := func() {
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
	}
	for _, sq := range seqs {
		lits := p[:sq>>32&0xffff]
		p = p[len(lits)+int(sq>>48):]
		// Three codes of at most 15 bits fit above the n < 8 pending bits.
		for ; len(lits) >= 3; lits = lits[3:] {
			c0, c1, c2 := lit[lits[0]], lit[lits[1]], lit[lits[2]]
			acc |= uint64(c0.code) << n
			n += uint(c0.len)
			acc |= uint64(c1.code) << n
			n += uint(c1.len)
			acc |= uint64(c2.code) << n
			n += uint(c2.len)
			flush()
		}
		for _, b := range lits {
			c := lit[b]
			acc |= uint64(c.code) << n
			n += uint(c.len)
		}
		if t := uint32(sq); t >= matchFlag {
			lc := t >> 26 & 31
			c := lit[endOfBlock+1+lc]
			acc |= (uint64(c.code) | uint64(t>>16&31)<<c.len) << n
			n += uint(c.len) + uint(lengthExtra[lc])
			flush()
			oc := t >> 21 & 31
			c = off[oc]
			acc |= (uint64(c.code) | uint64(t&(1<<13-1))<<c.len) << n
			n += uint(c.len) + uint(offsetExtra[oc])
		}
		flush()
	}
	w.pos, w.acc, w.n = pos, acc, n
}

// freqNode is a symbol with a nonzero frequency.
type freqNode struct {
	sym  uint16
	freq int32
}

// huffScratch is the working space of huffScratch.build. Nothing in it
// carries from one call to the next.
type huffScratch struct {
	nodes, tmp [maxLitCodes + 1]freqNode // sortByFreq's; +1: package-merge's sentinel
	weight     [maxLitCodes]int32        // of the k-th joined node
	parent     [maxLitCodes]uint16       // of the k-th joined node
	leafParent [maxLitCodes]uint16       // of the i-th lightest symbol
	depth      [maxLitCodes]uint16       // of the k-th joined node
	lens       [maxLitCodes]uint8
	buckets    [256]int32
}

// build sets codes[s] to the code compress/flate's huffmanEncoder.generate
// gives symbol s for the frequencies freq, with no code longer than
// maxBits: the symbols in order of frequency, then of symbol value, get
// the lengths of the Huffman tree from the longest down (all length 1 for
// two symbols or fewer), and canonical codes in symbol order. It reports
// whether the tree was deeper than maxBits, so that the lengths came from
// package-merge.
func (h *huffScratch) build(codes []hcode, freq []int32, maxBits int) (limited bool) {
	list := h.sortByFreq(freq)
	var count [16]int32 // count[l] symbols get length l
	if len(list) <= 2 {
		count[1] = int32(len(list))
	} else if !h.huffmanCounts(list, maxBits, &count) {
		packageMergeCounts(list, int32(maxBits), &count)
		limited = true
	}
	i := 0
	for l := maxBits; l > 0; l-- {
		for range count[l] {
			h.lens[list[i].sym] = uint8(l)
			i++
		}
	}
	var next [16]uint16 // the next code of each length
	for l, code := 1, uint16(0); l < 16; l++ {
		code = (code + uint16(count[l-1])) << 1
		next[l] = code
	}
	for s, f := range freq {
		if f == 0 {
			codes[s] = hcode{}
			continue
		}
		l := h.lens[s]
		codes[s] = hcode{code: bits.Reverse16(next[l]) >> (16 - l), len: uint16(l)}
		next[l]++
	}
	return limited
}

// sortByFreq returns the symbols with nonzero frequency sorted by
// frequency, ties in symbol order: a least-significant-digit counting sort
// a byte at a time, which is stable. The result has room for a sentinel
// after it.
func (h *huffScratch) sortByFreq(freq []int32) []freqNode {
	n, most := 0, int32(0)
	for s, f := range freq {
		if f != 0 {
			h.nodes[n] = freqNode{uint16(s), f}
			n++
			most = max(most, f)
		}
	}
	src, dst := h.nodes[:n], h.tmp[:n]
	for shift := 0; shift == 0 || most>>shift != 0; shift += 8 {
		count := h.buckets[:min(most>>shift, 255)+1] // no digit is larger
		clear(count)
		for _, x := range src {
			count[x.freq>>shift&255]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, x := range src {
			b := x.freq >> shift & 255
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// huffmanCounts sets count[l] to the number of symbols at depth l of the
// Huffman tree over list, which is sorted by frequency. It builds the tree
// with two queues, the symbols and the joined nodes, both in order of
// weight: each step joins the two lightest heads and, on equal weights,
// takes the joined node first — the choice under which the depths are
// those of compress/flate's package-merge whenever the tree fits (the
// leaf-first choice gives other, equally short, codes). It reports false
// when the tree is deeper than maxBits.
func (h *huffScratch) huffmanCounts(list []freqNode, maxBits int, count *[16]int32) bool {
	n := len(list)
	leaf, joined := 0, 0
	for k := 0; k < n-1; k++ {
		var w int32
		for range 2 {
			if leaf < n && (joined == k || list[leaf].freq < h.weight[joined]) {
				w += list[leaf].freq
				h.leafParent[leaf] = uint16(k)
				leaf++
			} else {
				w += h.weight[joined]
				h.parent[joined] = uint16(k)
				joined++
			}
		}
		h.weight[k] = w
	}
	// Joined nodes are consumed in order, so parents and depths are
	// monotone: the first symbol is the deepest.
	h.depth[n-2] = 0
	for k := n - 3; k >= 0; k-- {
		h.depth[k] = h.depth[h.parent[k]] + 1
	}
	if int(h.depth[h.leafParent[0]])+1 > maxBits {
		return false
	}
	for i := range n {
		count[h.depth[h.leafParent[i]]+1]++
	}
	return true
}

// packageMergeCounts is compress/flate's bitCounts: the boundary
// package-merge, which sets count[l] to the number of symbols of length l
// in the best code of lengths at most maxBits over list (sorted by
// frequency, at least three symbols, with room for a sentinel after it).
func packageMergeCounts(list []freqNode, maxBits int32, count *[16]int32) {
	n := int32(len(list))
	list = list[:n+1]
	list[n] = freqNode{math.MaxUint16, math.MaxInt32}
	maxBits = min(maxBits, n-1) // no tree is deeper

	// levelInfo is the state of one level of the chains: the weight of its
	// last item, of the next symbol and of the next pair from the level
	// below, and how many items it still needs.
	type levelInfo struct {
		level, lastFreq, nextCharFreq, nextPairFreq, needed int32
	}
	// Level 0 is a placeholder, so that level 1's pairs are never chosen.
	var levels [16]levelInfo
	// leafCounts[i][j] is the number of symbols left of the level-j
	// ancestor of level i's rightmost item.
	var leafCounts [16][16]int32
	for level := int32(1); level <= maxBits; level++ {
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}
	levels[maxBits].needed = 2*n - 4 // of 2n-2 items at the top, two are placed

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of symbols and pairs: this level and those below are done.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}
		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// A pair from the level below, which must make two more.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}
		if l.needed--; l.needed == 0 {
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}
	if leafCounts[maxBits][maxBits] != n {
		panic("sstable: package-merge placed the wrong number of symbols")
	}

	*count = [16]int32{}
	counts := &leafCounts[maxBits]
	for level, length := maxBits, 1; level > 0; level, length = level-1, length+1 {
		count[length] = counts[level] - counts[level-1]
	}
}
