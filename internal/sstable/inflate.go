package sstable

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
)

// inflate.go decodes the DEFLATE (RFC 1951) streams the block builder's
// deflater (deflate.go) produces. A block is always complete in memory, so
// the decoder works on the whole buffer at once: no io.Reader, no 32 KiB
// ring window and no copy out of it — back-references copy within the
// output slice itself. It accepts exactly the streams compress/flate's
// reader accepts and decodes them to the same bytes (FuzzInflate holds it
// to that). It can pause once its output reaches a limit and resume where
// it stopped (inflater.step), so a point read decodes a block only up to
// the entry it needs.
//
// While at least eight input bytes and fastRoom bytes of output remain,
// each turn of the symbol loop refills the bit buffer with one unchecked
// 8-byte load and writes up to three literals, or two and a copy, by
// index into the output's capacity. The last input bytes, and an output
// that has run out of room, take the checked refill and grow the output.

// Table geometry. Each Huffman code is decoded with one lookup in a root
// table indexed by the next rootBits input bits, plus one lookup in a
// subtable for the codes longer than that. The table sizes are zlib's
// "enough" bound for the code's symbol count, root width and 15-bit
// maximum length (TestInflateTableBounds recomputes them).
const (
	litRootBits   = 10
	litTableSize  = 1332 // enough 286 10 15
	distRootBits  = 8
	distTableSize = 400 // enough 30 8 15
	clenRootBits  = 7   // code-length codes are at most 7 bits: no subtables
	maxLitCodes   = 286 // HLIT limit; fixed blocks also code 286 and 287, to reject them
	maxDistCodes  = 30
)

// A table entry packs everything the decode loop needs about one code:
//
//	bits 0-3   code length in bits (for a subtable entry, the full length)
//	bits 4-7   extra bits that follow the code (for a link, the subtable's index width)
//	bits 8-11  kind
//	bits 16-31 value: literal byte, base length or distance, or subtable offset
//
// The zero entry is kindInvalid: slots no code reaches stay zero.
const (
	kindInvalid = iota // unused slot, or a symbol compress/flate rejects
	kindLiteral        // value is a byte (in the code-length code, a code length)
	kindCopy           // value plus extra bits is a match length or distance (code-length code 16: a repeat count)
	kindZeros          // code-length codes 17 and 18: value plus extra bits zero lengths
	kindEnd            // end of block
	kindLink           // value is a subtable offset, extra its index width

	kindShift  = 8
	valueShift = 16
)

func entry(kind, value, extra uint32) uint32 {
	return value<<valueShift | kind<<kindShift | extra<<4
}

var (
	errInflateCorrupt = errors.New("corrupt deflate stream")

	// The per-symbol entries (without code lengths) of the three alphabets.
	litSyms  [maxLitCodes + 2]uint32
	distSyms [maxDistCodes + 2]uint32
	clenSyms [19]uint32

	// The fixed-Huffman tables of RFC 1951 §3.2.6, built once.
	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32

	// clenOrder is the order in which a dynamic header lists the code
	// lengths of the code-length code.
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	for i := 0; i < 256; i++ {
		litSyms[i] = entry(kindLiteral, uint32(i), 0)
	}
	litSyms[256] = entry(kindEnd, 0, 0)
	base := uint32(3)
	for i := uint32(0); i < 28; i++ {
		extra := uint32(lengthExtra[i])
		litSyms[257+i] = entry(kindCopy, base, extra)
		base += 1 << extra
	}
	litSyms[285] = entry(kindCopy, 258, 0) // 286 and 287 stay invalid
	base = 1
	for i := uint32(0); i < maxDistCodes; i++ { // 30 and 31 stay invalid
		extra := uint32(offsetExtra[i])
		distSyms[i] = entry(kindCopy, base, extra)
		base += 1 << extra
	}
	for i := uint32(0); i < 16; i++ {
		clenSyms[i] = entry(kindLiteral, i, 0)
	}
	clenSyms[16] = entry(kindCopy, 3, 2)
	clenSyms[17] = entry(kindZeros, 3, 3)
	clenSyms[18] = entry(kindZeros, 11, 7)

	var lens [maxLitCodes + 2]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	buildDecodeTable(fixedLit[:], litRootBits, lens[:], lengthCounts(lens[:]), litSyms[:])
	var dlens [maxDistCodes + 2]uint8
	for i := range dlens {
		dlens[i] = 5
	}
	buildDecodeTable(fixedDist[:], distRootBits, dlens[:], lengthCounts(dlens[:]), distSyms[:])
}

// lengthCounts returns how many of lengths are 0, 1, … 15.
func lengthCounts(lengths []uint8) (count [16]int) {
	for _, l := range lengths {
		count[l]++
	}
	return count
}

// buildDecodeTable fills table with the canonical Huffman code of
// lengths, each symbol s decoding to syms[s] plus its length; count[l]
// says how many of lengths are l (count[0] is ignored). It reports false
// for the codes compress/flate rejects: over- or under-subscribed ones,
// except a single code of length 1. An empty code is accepted, as there,
// and every lookup in it fails.
//
//lsm:hotpath
func buildDecodeTable(table []uint32, rootBits uint, lengths []uint8, count [16]int, syms []uint32) bool {
	count[0] = 0
	maxLen := uint(15)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		clear(table[:1<<rootBits])
		return true
	}
	var next, offs [16]int
	code, n := 0, 0
	for l := uint(1); l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
		offs[l] = n
		n += count[l]
	}
	if used := code + count[maxLen]; used != 1<<maxLen {
		if used != 1 || maxLen != 1 {
			return false
		}
		clear(table[:1<<rootBits]) // the one code leaves half the slots unused
	}
	// Symbols in canonical order: by length, then by symbol. Afterwards
	// the codes of length l are sorted[offs[l-1]:offs[l]].
	var sorted [maxLitCodes + 2]uint16
	for s, l := range lengths {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// The root table by doubling. A code of length l belongs in every
	// slot whose low l bits are the code reversed: table[:1<<l] has one
	// such slot, and copying that prefix forward before each longer
	// length repeats it in all the others. Slots the codes leave open
	// are the prefixes of longer codes, which the links below overwrite;
	// only the one-code case leaves some empty, and it cleared them.
	k := 0
	for l := uint(1); l <= rootBits; l++ {
		if l > 1 {
			copy(table[1<<(l-1):1<<l], table[:1<<(l-1)])
		}
		if l > maxLen {
			continue
		}
		for ; k < offs[l]; k++ {
			s := sorted[k]
			table[bits.Reverse16(uint16(next[l]))>>(16-l)] = syms[s] | uint32(l)
			next[l]++
		}
	}

	mask := 1<<rootBits - 1
	prefix, sub, end := -1, 0, 1<<rootBits
	subBits := uint(0)
	for _, s := range sorted[k:n] {
		l := uint(lengths[s])
		rev := int(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		e := syms[s] | uint32(l)
		if rev&mask != prefix {
			// A new subtable, as wide as the longest code under this
			// root prefix. The codes are in canonical order, so the
			// still-unplaced codes no longer than root+subBits fill it
			// exactly at that width and leave it short at any less.
			prefix = rev & mask
			subBits = l - rootBits
			for left := 1 << subBits; subBits+rootBits < maxLen; left <<= 1 {
				if left -= count[subBits+rootBits]; left <= 0 {
					break
				}
				subBits++
			}
			sub, end = end, end+1<<subBits
			table[prefix] = entry(kindLink, uint32(sub), uint32(subBits))
		}
		for j := rev >> rootBits; j < 1<<subBits; j += 1 << (l - rootBits) {
			table[sub+j] = e
		}
		count[l]--
	}
	return true
}

// inflater holds the dynamic-Huffman tables one block stream builds, and
// where the last step left the stream. It lives inside the pooled
// blockDecoder; nothing in it outlives the block it decodes, which start
// begins.
type inflater struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenRootBits]uint32
	lens [maxLitCodes + maxDistCodes]uint8

	// The paused stream: the bit buffer (nb valid bits, next bit lowest),
	// the next input byte to load, the output index where the stream's
	// output starts (no back-reference reaches below it), the current
	// block's tables (nil between blocks) and whether it is the last.
	bb    uint64
	nb    uint
	pos   int
	base  int
	lt    *[litTableSize]uint32
	dt    *[distTableSize]uint32
	final bool
}

// refill tops the bit buffer bb (nb valid bits, lowest first) up to at
// least 56 bits from src[pos:]. Past the end of src it shifts in zero
// bytes and still advances pos, so 8*pos-nb is always the number of bits
// consumed; ok is false once that exceeds the input, which makes the
// stream truncated however the zeros decoded. Bits above nb in bb are
// either zero or the true next bits, so the unaligned 8-byte load may
// overlap them.
func refill(src []byte, bb uint64, nb uint, pos int) (uint64, uint, int, bool) {
	if pos+8 <= len(src) {
		return bb | binary.LittleEndian.Uint64(src[pos:])<<nb, nb | 56, pos + int(63-nb)>>3, true
	}
	if overread(src, pos, nb) {
		return bb, nb, pos, false
	}
	for ; nb < 56; nb += 8 {
		if pos < len(src) {
			bb |= uint64(src[pos]) << nb
		}
		pos++
	}
	return bb, nb, pos, true
}

// overread reports whether a decoder at pos with nb bits buffered has
// consumed bits past the end of src.
func overread(src []byte, pos int, nb uint) bool { return 8*pos-int(nb) > 8*len(src) }

// failure is the error for a stream that stopped decoding with pos and nb
// as given: truncation if it had consumed bits past the input, else
// corruption.
func failure(src []byte, pos int, nb uint) error {
	if overread(src, pos, nb) {
		return io.ErrUnexpectedEOF
	}
	return errInflateCorrupt
}

// fastRoom is the most output one fast turn of the symbol loop writes:
// two literals, then the longest copy and the up to 7 bytes its last
// 8-byte store writes past the copy's end.
const fastRoom = 2 + 258 + 7

// inflate appends the decoding of the complete DEFLATE stream src to dst.
// Bytes after the final block are ignored. On error the partial output is
// returned with it, so a caller can keep the grown buffer. Bytes of dst's
// spare capacity past the returned length may be overwritten.
//
//lsm:hotpath
func (f *inflater) inflate(dst, src []byte) ([]byte, error) {
	f.start(len(dst))
	dst, _, err := f.step(dst, src, math.MaxInt)
	return dst, err
}

// start begins a stream whose output is appended to a buffer of n bytes.
func (f *inflater) start(n int) {
	f.bb, f.nb, f.pos, f.base = 0, 0, 0, n
	f.lt, f.dt, f.final = nil, nil, false
}

// step resumes the stream start began, or the last step paused, and
// appends its decoding to dst until dst holds at least limit bytes or the
// stream ends; done reports the end. Each call must pass the same src and
// dst as the last returned, and a step that failed cannot be resumed. A
// step pauses only between symbols: it writes a whole copy, or a whole
// stored block, past limit. It writes into dst as inflate does.
//
//lsm:hotpath
func (f *inflater) step(dst, src []byte, limit int) (_ []byte, done bool, _ error) {
	bb, nb, pos := f.bb, f.nb, f.pos
	lt, dt, final := f.lt, f.dt, f.final
	var ok bool
	// The output is written by index: dst[:n] is decoded, dst[n:] is
	// capacity still to fill.
	base, n := f.base, len(dst)
	dst = dst[:cap(dst)]
blocks:
	for lt != nil || !final {
		if lt == nil {
			if n >= limit {
				break
			}
			if nb < 48 {
				if bb, nb, pos, ok = refill(src, bb, nb, pos); !ok {
					return dst[:n], false, io.ErrUnexpectedEOF
				}
			}
			final = bb&1 == 1
			typ := bb >> 1 & 3
			bb >>= 3
			nb -= 3
			switch typ {
			case 0: // stored: skip to a byte boundary, then LEN, NLEN and LEN bytes
				p := pos - int(nb>>3)
				if p+4 > len(src) {
					return dst[:n], false, io.ErrUnexpectedEOF
				}
				ln := int(binary.LittleEndian.Uint16(src[p:]))
				if uint16(ln) != ^binary.LittleEndian.Uint16(src[p+2:]) {
					return dst[:n], false, errInflateCorrupt
				}
				p += 4
				if p+ln > len(src) {
					return dst[:n], false, io.ErrUnexpectedEOF
				}
				dst = append(dst[:n], src[p:p+ln]...)
				n = len(dst)
				dst = dst[:cap(dst)]
				bb, nb, pos = 0, 0, p+ln
				continue
			case 1:
				lt, dt = &fixedLit, &fixedDist
			case 2:
				if bb, nb, pos, ok = f.readTables(src, bb, nb, pos); !ok {
					return dst[:n], false, failure(src, pos, nb)
				}
				lt, dt = &f.lit, &f.dist
			default:
				return dst[:n], false, errInflateCorrupt
			}
		}

		// A literal/length code takes at most 15 bits; what may follow it,
		// its extra bits and a distance code with its own, at most 5+15+13.
		for {
			if n >= limit {
				break blocks
			}
			var e uint32
			if pos+8 <= len(src) && len(dst)-n >= fastRoom {
				// Fast turn: the load leaves at least 56 bits, room for
				// three codes, and the output has room for what they
				// write. The first two are written here if literals.
				bb |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
				e = litCode(lt, bb)
				bb >>= e & 15
				nb -= uint(e & 15)
				if e>>kindShift&15 == kindLiteral {
					dst[n] = byte(e >> valueShift)
					n++
					e = litCode(lt, bb)
					bb >>= e & 15
					nb -= uint(e & 15)
					if e>>kindShift&15 == kindLiteral {
						dst[n] = byte(e >> valueShift)
						n++
						e = litCode(lt, bb)
						bb >>= e & 15
						nb -= uint(e & 15)
					}
				}
			} else {
				if nb < 15 {
					if bb, nb, pos, ok = refill(src, bb, nb, pos); !ok {
						return dst[:n], false, io.ErrUnexpectedEOF
					}
				}
				e = litCode(lt, bb)
				bb >>= e & 15
				nb -= uint(e & 15)
			}
			kind := e >> kindShift & 15
			if kind == kindLiteral {
				if n == len(dst) {
					dst = growOutput(dst, n, len(src)-pos)
				}
				dst[n] = byte(e >> valueShift)
				n++
				continue
			}
			if kind != kindCopy {
				if kind == kindEnd {
					lt, dt = nil, nil
					break
				}
				return dst[:n], false, failure(src, pos, nb)
			}
			if nb < 33 {
				if bb, nb, pos, ok = refill(src, bb, nb, pos); !ok {
					return dst[:n], false, io.ErrUnexpectedEOF
				}
			}
			extra := uint(e >> 4 & 15)
			length := int(e>>valueShift) + int(bb&(1<<extra-1))
			bb >>= extra
			nb -= extra

			e = dt[bb&(1<<distRootBits-1)]
			if e>>kindShift&15 == kindLink {
				e = dt[e>>valueShift+uint32(bb>>distRootBits)&(1<<(e>>4&15)-1)]
			}
			bb >>= e & 15
			nb -= uint(e & 15)
			if e>>kindShift&15 != kindCopy {
				return dst[:n], false, failure(src, pos, nb)
			}
			extra = uint(e >> 4 & 15)
			dist := int(e>>valueShift) + int(bb&(1<<extra-1))
			bb >>= extra
			nb -= extra
			if dist > n-base {
				return dst[:n], false, failure(src, pos, nb)
			}
			if len(dst)-n < length+7 {
				dst = growOutput(dst, n, len(src)-pos)
			}
			copyMatch(dst, n, dist, length)
			n += length
		}
	}
	f.bb, f.nb, f.pos = bb, nb, pos
	f.lt, f.dt, f.final = lt, dt, final
	if lt != nil || !final {
		return dst[:n], false, nil
	}
	if overread(src, pos, nb) {
		return dst[:n], false, io.ErrUnexpectedEOF
	}
	return dst[:n], true, nil
}

// litCode returns the entry of the literal/length code at the bottom of
// bb, following a root entry's link into its subtable.
//
//lsm:hotpath
func litCode(lt *[litTableSize]uint32, bb uint64) uint32 {
	e := lt[bb&(1<<litRootBits-1)]
	if e>>kindShift&15 == kindLink {
		e = lt[e>>valueShift+uint32(bb>>litRootBits)&(1<<(e>>4&15)-1)]
	}
	return e
}

// copyMatch writes the length bytes that start dist bytes before dst[n]
// at dst[n:], which must have room for length+7 bytes. Eight bytes at a
// time when the source runs at least that far ahead, as each load then
// reads only bytes already written; a closer, overlapping source byte by
// byte, repeating its period. The 8-byte stores may write up to 7 bytes
// past the copy.
//
//lsm:hotpath
func copyMatch(dst []byte, n, dist, length int) {
	s := n - dist
	if dist >= 8 {
		for i := 0; i < length; i += 8 {
			binary.LittleEndian.PutUint64(dst[n+i:], binary.LittleEndian.Uint64(dst[s+i:]))
		}
		return
	}
	for i := 0; i < length; i++ {
		dst[n+i] = dst[s+i]
	}
}

// growOutput returns dst, of which n bytes are decoded, moved to a
// larger buffer at its full capacity. The room past n is at least
// fastRoom, and twice the unread input: a first guess at what is left to
// decode, so that a block inflated into an empty buffer grows it once or
// twice rather than at every doubling.
//
//lsm:hotpath
func growOutput(dst []byte, n, unread int) []byte {
	dst = append(dst[:n], make([]byte, fastRoom+2*max(unread, 0))...)
	return dst[:cap(dst)]
}

// readTables reads a dynamic block's header (RFC 1951 §3.2.7) and builds
// f.lit and f.dist from it, with compress/flate's limits: at most 286
// literal/length and 30 distance codes, no repeat of a previous length at
// position 0, no repeat running past the end, and complete codes only.
// It counts each code's lengths as it decodes them, for the table builds.
func (f *inflater) readTables(src []byte, bb uint64, nb uint, pos int) (uint64, uint, int, bool) {
	nlit := int(bb&31) + 257
	ndist := int(bb>>5&31) + 1
	nclen := int(bb>>10&15) + 4
	bb >>= 14
	nb -= 14
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return bb, nb, pos, false
	}
	var clens [19]uint8
	var count [16]int
	ok := true
	for _, s := range clenOrder[:nclen] {
		if nb < 3 {
			if bb, nb, pos, ok = refill(src, bb, nb, pos); !ok {
				return bb, nb, pos, false
			}
		}
		clens[s] = uint8(bb & 7)
		count[bb&7]++
		bb >>= 3
		nb -= 3
	}
	if !buildDecodeTable(f.clen[:], clenRootBits, clens[:], count, clenSyms[:]) {
		return bb, nb, pos, false
	}
	// counts[0] for the literal/length code, counts[1] for the distances.
	var counts [2][16]int
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if nb < 16 {
			if bb, nb, pos, ok = refill(src, bb, nb, pos); !ok {
				return bb, nb, pos, false
			}
		}
		e := f.clen[bb&(1<<clenRootBits-1)]
		bb >>= e & 15
		nb -= uint(e & 15)
		kind := e >> kindShift & 15
		if kind == kindLiteral {
			l := uint8(e >> valueShift)
			lens[i] = l
			if i < nlit {
				counts[0][l&15]++
			} else {
				counts[1][l&15]++
			}
			i++
			continue
		}
		if kind == kindInvalid || kind == kindCopy && i == 0 {
			return bb, nb, pos, false
		}
		extra := uint(e >> 4 & 15)
		rep := int(e>>valueShift) + int(bb&(1<<extra-1))
		bb >>= extra
		nb -= extra
		end := i + rep
		if end > len(lens) {
			return bb, nb, pos, false
		}
		v := uint8(0)
		if kind == kindCopy {
			v = lens[i-1]
		}
		// A run may cross from the literal/length lengths into the
		// distance lengths.
		inLit := max(min(end, nlit)-i, 0)
		counts[0][v&15] += inLit
		counts[1][v&15] += rep - inLit
		for ; i < end; i++ {
			lens[i] = v
		}
	}
	ok = buildDecodeTable(f.lit[:], litRootBits, lens[:nlit], counts[0], litSyms[:]) &&
		buildDecodeTable(f.dist[:], distRootBits, lens[nlit:], counts[1], distSyms[:])
	return bb, nb, pos, ok
}
