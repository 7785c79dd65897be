package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"leveldbpp/internal/sstable"
)

// Attribute extraction (DESIGN.md §5.10): one pass over a JSON document
// that validates it the way encoding/json does and picks out the string
// values of the indexed attributes, without building a map of it.
//
// An attribute name is matched against an object's keys literally first;
// failing that, the part before its first dot must name a member that is
// itself an object, and the rest of the name is looked up in there by the
// same rule ("user.id" finds {"user.id":…} before {"user":{"id":…}}). Of
// duplicate keys in one object the last wins, as in a decoded map, and
// keys are compared after unquoting. The value must be a JSON string:
// numbers, booleans, null, arrays and objects index nothing, and neither
// does a string holding NUL, which would break Composite key framing. A
// document encoding/json rejects — malformed, trailing bytes, nested
// deeper than maxJSONDepth — or whose top level is not an object yields no
// attribute at all.

// maxJSONDepth is encoding/json's limit on nested arrays and objects.
const maxJSONDepth = 10000

// attrSlot is one attribute's share of a scan: the result, and where
// along the attribute's dot path the scanner stands.
type attrSlot struct {
	// val is the attribute's value once scanAttrs returns: nil when the
	// document has no indexable one, else the string's bytes. They alias
	// the document unless the string needed unquoting (an escape, invalid
	// UTF-8), so they are good for as long as the document's bytes are.
	val []byte

	off   int // attrs[i][off:] is the part of the name still to be found
	level int // objects entered so far through the name's leading parts
	found int // level of the key that set val (even to nil), -1 for none
	hit   uint8
}

// How the member being read matches a slot's name.
const (
	hitNone    uint8 = iota
	hitLiteral       // the key is all that is left of the name
	hitHead          // the key is the part before the name's next dot
)

// attrScanner is the state of one scanAttrs call. The document travels
// beside it as a parameter: values that alias it are stored through slot
// pointers, which escape analysis reads as the whole struct's contents
// reaching the heap — and callers keep their slots on the stack.
type attrScanner struct {
	attrs []string
	slots []attrSlot
}

// scanAttrs finds attrs in doc and leaves attrs[i]'s value in
// slots[i].val; len(slots) must equal len(attrs). It allocates only for
// a wanted key or value that needs unquoting.
//
//lsm:hotpath
func scanAttrs(doc []byte, attrs []string, slots []attrSlot) {
	for i := range slots {
		slots[i] = attrSlot{found: -1}
	}
	s := attrScanner{attrs: attrs, slots: slots}
	i := skipSpace(doc, 0)
	if i == len(doc) || doc[i] != '{' {
		return
	}
	end := s.object(doc, i, 1, 0)
	if end < 0 || skipSpace(doc, end) != len(doc) {
		for i := range slots {
			slots[i].val = nil
		}
	}
}

// attrInRange reports whether doc's attr is a string in [lo, hi]: the
// val(A_i) test of the paper's lookups, compared in place.
//
//lsm:hotpath
func attrInRange(doc []byte, attr, lo, hi string) bool {
	var slot [1]attrSlot
	scanAttrs(doc, []string{attr}, slot[:])
	v := slot[0].val
	return v != nil && string(v) >= lo && string(v) <= hi
}

// object scans the object that opens at doc[i], depth containers deep,
// and returns the index past its closing brace, or -1 when the document
// is invalid. The slots at level look for their names among its keys; a
// negative level makes it a pure validity check.
//
//lsm:hotpath
func (s *attrScanner) object(doc []byte, i, depth, level int) int {
	if depth > maxJSONDepth {
		return -1
	}
	i = skipSpace(doc, i+1)
	if i < len(doc) && doc[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(doc) || doc[i] != '"' {
			return -1
		}
		end, flags := scanString(doc, i)
		if end < 0 {
			return -1
		}
		literal, head, keyLen := s.matchKey(doc[i+1:end-1], flags, level)
		i = skipSpace(doc, end)
		if i >= len(doc) || doc[i] != ':' {
			return -1
		}
		i = skipSpace(doc, i+1)
		if i >= len(doc) {
			return -1
		}
		switch {
		case !literal && !head:
			i = s.value(doc, i, depth)
		case doc[i] == '"':
			end, flags := scanString(doc, i)
			if end < 0 {
				return -1
			}
			var val []byte
			if literal {
				val = indexable(doc[i+1:end-1], flags)
			}
			s.settle(level, val, 0)
			i = end
		case doc[i] == '{' && head:
			s.settle(level, nil, keyLen+1)
			i = s.object(doc, i, depth+1, level+1)
			for j := range s.slots {
				if sl := &s.slots[j]; sl.level == level+1 {
					sl.level, sl.off = level, sl.off-keyLen-1
				}
			}
		default:
			s.settle(level, nil, 0)
			i = s.value(doc, i, depth)
		}
		if i < 0 {
			return -1
		}
		i = skipSpace(doc, i)
		if i >= len(doc) {
			return -1
		}
		switch doc[i] {
		case ',':
			i = skipSpace(doc, i+1)
		case '}':
			return i + 1
		default:
			return -1
		}
	}
}

// matchKey marks the slots at level whose name the key (raw, between its
// quotes) answers or leads into, and reports whether any did either, with
// the unquoted key's length.
//
//lsm:hotpath
func (s *attrScanner) matchKey(raw []byte, flags uint8, level int) (literal, head bool, keyLen int) {
	var key []byte
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.level != level {
			continue
		}
		if key == nil {
			key = unquoted(raw, flags)
		}
		rest := s.attrs[i][sl.off:]
		switch n := len(key); {
		case n == len(rest) && string(key) == rest:
			sl.hit, literal = hitLiteral, true
		case n < len(rest) && rest[n] == '.' && string(key) == rest[:n] && bytes.IndexByte(key, '.') < 0:
			sl.hit, head = hitHead, true
		}
	}
	return literal, head, len(key)
}

// settle applies the value just read to the slots matchKey marked. A
// literal match answers its attribute with val (nil for a value that
// indexes nothing) unless a key nearer the top already did; a head match
// replaces whatever an earlier member of the same name led to, and with
// advance > 0 — the value is an object — moves the slot into it.
//
//lsm:hotpath
func (s *attrScanner) settle(level int, val []byte, advance int) {
	for i := range s.slots {
		sl := &s.slots[i]
		switch sl.hit {
		case hitLiteral:
			if sl.found < 0 || level <= sl.found {
				sl.found, sl.val = level, val
			}
		case hitHead:
			if sl.found > level {
				sl.found, sl.val = -1, nil
			}
			if advance > 0 {
				sl.level, sl.off = level+1, sl.off+advance
			}
		}
		sl.hit = hitNone
	}
}

// value validates the value that starts at doc[i] inside a container
// depth deep and returns the index past it, or -1.
//
//lsm:hotpath
func (s *attrScanner) value(doc []byte, i, depth int) int {
	switch c := doc[i]; {
	case c == '"':
		end, _ := scanString(doc, i)
		return end
	case c == '{':
		return s.object(doc, i, depth+1, -1)
	case c == '[':
		return s.array(doc, i, depth+1)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(doc, i)
	case c == 't':
		return scanWord(doc, i, "true")
	case c == 'f':
		return scanWord(doc, i, "false")
	case c == 'n':
		return scanWord(doc, i, "null")
	}
	return -1
}

//lsm:hotpath
func (s *attrScanner) array(doc []byte, i, depth int) int {
	if depth > maxJSONDepth {
		return -1
	}
	i = skipSpace(doc, i+1)
	if i < len(doc) && doc[i] == ']' {
		return i + 1
	}
	for {
		if i >= len(doc) {
			return -1
		}
		if i = s.value(doc, i, depth); i < 0 {
			return -1
		}
		i = skipSpace(doc, i)
		if i >= len(doc) {
			return -1
		}
		switch doc[i] {
		case ',':
			i = skipSpace(doc, i+1)
		case ']':
			return i + 1
		default:
			return -1
		}
	}
}

//lsm:hotpath
func skipSpace(doc []byte, i int) int {
	for i < len(doc) && (doc[i] == ' ' || doc[i] == '\n' || doc[i] == '\t' || doc[i] == '\r') {
		i++
	}
	return i
}

// What scanString saw between the quotes.
const (
	strEscape uint8 = 1 << iota // a backslash escape
	strHigh                     // a byte outside ASCII
)

// scanString validates the string whose opening quote is doc[i] and
// returns the index past its closing quote, or -1. Like encoding/json it
// accepts any byte from 0x20 up, valid UTF-8 or not.
//
//lsm:hotpath
func scanString(doc []byte, i int) (end int, flags uint8) {
	for i++; i < len(doc); i++ {
		// Skip ordinary bytes eight at a time, stopping at the first
		// that is not.
		for i+8 <= len(doc) {
			if m := strSpecial(binary.LittleEndian.Uint64(doc[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
			i += 8
		}
		if i == len(doc) {
			break
		}
		c := doc[i]
		if strOrdinary[c] {
			continue
		}
		switch {
		case c == '"':
			return i + 1, flags
		case c == '\\':
			flags |= strEscape
			i++
			if i >= len(doc) {
				return -1, 0
			}
			switch doc[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(doc) || !isHex(doc[i+1]) || !isHex(doc[i+2]) || !isHex(doc[i+3]) || !isHex(doc[i+4]) {
					return -1, 0
				}
				i += 4
			default:
				return -1, 0
			}
		case c < 0x20:
			return -1, 0
		default:
			flags |= strHigh
		}
	}
	return -1, 0
}

// strOrdinary marks the bytes a string passes over without a second
// look: printable ASCII but the quote and the backslash.
var strOrdinary = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strSpecial tests w, eight string bytes read little-endian, for a byte
// strOrdinary does not mark. The result is zero if there is none; else
// its lowest set bit is the top bit of the first such byte. Each test is
// the borrow of a bytewise subtraction: x-0x01 borrows through a zero
// byte (a quote or backslash, after the XOR), w-0x20 through a byte below
// 0x20; a byte from 0x80 up has its own top bit. A borrow carries only
// into later bytes, so it may flag bytes after the first but none before.
func strSpecial(w uint64) uint64 {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	q := w ^ ones*'"'
	b := w ^ ones*'\\'
	return ((q-ones)&^q | (b-ones)&^b | (w - ones*0x20) | w) & tops
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber validates the JSON number that starts at doc[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
//lsm:hotpath
func scanNumber(doc []byte, i int) int {
	if doc[i] == '-' {
		i++
	}
	switch {
	case i < len(doc) && doc[i] == '0':
		i++
	case i < len(doc) && '1' <= doc[i] && doc[i] <= '9':
		i = skipDigits(doc, i)
	default:
		return -1
	}
	if i < len(doc) && doc[i] == '.' {
		if i = skipDigits(doc, i+1); i < 0 {
			return -1
		}
	}
	if i < len(doc) && (doc[i] == 'e' || doc[i] == 'E') {
		i++
		if i < len(doc) && (doc[i] == '+' || doc[i] == '-') {
			i++
		}
		i = skipDigits(doc, i)
	}
	return i
}

// skipDigits returns the index past the run of digits at doc[i], -1 when
// there is none.
func skipDigits(doc []byte, i int) int {
	start := i
	for i < len(doc) && '0' <= doc[i] && doc[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

func scanWord(doc []byte, i int, word string) int {
	if len(doc)-i < len(word) || string(doc[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}

// unquoted returns what the string between the quotes of raw denotes:
// raw itself unless it holds an escape or invalid UTF-8.
//
//lsm:hotpath
func unquoted(raw []byte, flags uint8) []byte {
	if flags == 0 || flags == strHigh && utf8.Valid(raw) {
		return raw
	}
	return unquote(raw)
}

// indexable is unquoted for an attribute value: nil when the string
// holds NUL, which only an escape can put there.
//
//lsm:hotpath
func indexable(raw []byte, flags uint8) []byte {
	val := unquoted(raw, flags)
	if flags&strEscape != 0 && bytes.IndexByte(val, compositeSep) >= 0 {
		return nil
	}
	return val
}

// unquote decodes a string scanString accepted the way encoding/json
// does: escapes resolved, \u surrogate pairs joined, and every lone
// surrogate or invalid UTF-8 byte replaced by U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					pair := utf8.RuneError
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						pair = utf16.DecodeRune(r, hex4(raw[i+3:]))
					}
					if pair != utf8.RuneError {
						i += 6 // the low half's escape is used up too
					}
					r = pair
				}
				out = utf8.AppendRune(out, r)
			default: // " \ /
				out = append(out, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// attrSlots returns n slots for a scan, out of the caller's stack buffer
// when they fit — more than four indexed attributes is rare.
func attrSlots(buf *[4]attrSlot, n int) []attrSlot {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]attrSlot, n)
}

// appendAttrValues appends doc's indexed attributes to dst in the order
// of attrs: the lsm.AttrExtractor of the Embedded index. The Value strings
// are views of the same bytes as attrSlot.val, not copies.
func appendAttrValues(dst []sstable.AttrValue, doc []byte, attrs []string) []sstable.AttrValue {
	var buf [4]attrSlot
	slots := attrSlots(&buf, len(attrs))
	scanAttrs(doc, attrs, slots)
	for i, sl := range slots {
		if sl.val != nil {
			dst = append(dst, sstable.AttrValue{Attr: attrs[i], Value: unsafe.String(unsafe.SliceData(sl.val), len(sl.val))})
		}
	}
	return dst
}
