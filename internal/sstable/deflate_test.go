package sstable

import (
	"bytes"
	"compress/flate"
	"container/heap"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stdlibWriters keeps the oracle's writers: building one zeroes about 1 MB.
var stdlibWriters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	return fw
}}

// stdlibDeflate is the oracle: compress/flate's BestSpeed writer, one Write
// and Close.
func stdlibDeflate(src []byte) []byte {
	var buf bytes.Buffer
	fw := stdlibWriters.Get().(*flate.Writer)
	defer stdlibWriters.Put(fw)
	fw.Reset(&buf)
	fw.Write(src)
	fw.Close()
	return buf.Bytes()
}

// checkDeflate holds deflate to compress/flate on src, once into an empty
// buffer and once appended after a prefix.
func checkDeflate(t *testing.T, src []byte) {
	t.Helper()
	want := stdlibDeflate(src)
	if got := deflate(nil, src); !bytes.Equal(got, want) {
		t.Fatalf("deflate of %d bytes: %d bytes differing from compress/flate's %d (input %.200x)", len(src), len(got), len(want), src)
	}
	prefix := []byte("prefix")
	if got := deflate(prefix, src); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("deflate of %d bytes after a prefix differs", len(src))
	}
}

func TestDeflateMatchesFlate(t *testing.T) {
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
		"large": func(n int) []byte { // every byte value: stored blocks
			p := make([]byte, n)
			rng.Read(p)
			return p
		},
		"skewed": func(n int) []byte { // few matches, long literal codes
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(rng.ExpFloat64() * 6)
			}
			return p
		},
		"tweets": func(n int) []byte {
			for len(text) < n {
				text = append(text, text...)
			}
			return text[:n]
		},
	}
	for _, size := range []int{0, 1, 2, 3, 16, 17, 100, 127, 128, 129, 257, 4096, 32768, 33000, 65534, 65535, 65536, 70000, 131070, 131071, 200000} {
		for _, gen := range inputs {
			checkDeflate(t, gen(size))
		}
	}
	for _, bs := range []int{512, 4096, 16384} {
		data := buildTableBytes(t, tweetEntries(2000), Options{BlockSize: bs, Compression: NoCompression})
		tbl, err := OpenTable(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tbl.NumBlocks(); i++ {
			raw, err := tbl.readBlock(i, false, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkDeflate(t, raw)
		}
	}
}

// FuzzDeflate is the differential against compress/flate's BestSpeed
// writer: the same bytes for every input. Seeds are in
// testdata/fuzz/FuzzDeflate; TestDeflateSeeds says what each exercises.
func FuzzDeflate(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		checkDeflate(t, src)
	})
}

// readSeed returns the input of a committed FuzzDeflate seed.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDeflate", name))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	if s, ok = strings.CutSuffix(s, ")\n"); !ok {
		t.Fatalf("seed %s is not one []byte", name)
	}
	v, err := strconv.Unquote(s)
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(v)
}

// TestDeflateSeeds holds each committed FuzzDeflate seed to the encoder
// rule it is there for. The text seeds are prefixes of workload tweet
// documents; tweet-block is the raw payload of a 4 KiB tweet table block.
func TestDeflateSeeds(t *testing.T) {
	// newDeflater is a deflater as a stream finds it: no slot in reach.
	newDeflater := func() *deflater { return &deflater{cur: maxMatchOffset + 1} }
	blockType := func(p []byte) byte { return deflate(nil, p)[0] >> 1 & 3 }
	stored := func(t *testing.T, p []byte) {
		if blockType(p) != 0 {
			t.Fatal("first block is not stored")
		}
	}
	literalsOnly := func(t *testing.T, p []byte) {
		if _, n := newDeflater().findMatches(p, 0, len(p)); n <= len(p)-len(p)>>4 {
			t.Fatalf("matches remove %d of %d tokens: not the literals-only rule", len(p)-n, len(p))
		}
	}
	for _, c := range []struct {
		name  string
		size  int // -1: any
		check func(t *testing.T, p []byte)
	}{
		{"empty", 0, func(t *testing.T, p []byte) {
			if got := deflate(nil, p); !bytes.Equal(got, []byte{1, 0, 0, 0xff, 0xff}) {
				t.Fatalf("got %x, want only the final empty stored block", got)
			}
		}},
		{"1-byte", 1, stored},
		{"16-bytes", 16, stored}, // the largest input stored by size
		{"17-bytes", 17, nil},    // the smallest coded as literals by size
		{"127-bytes", 127, nil},  // the largest
		{"128-bytes", 128, nil},  // the smallest through the match finder
		{"random-4k", 4096, stored},
		{"low-entropy", 2048, func(t *testing.T, p []byte) { // 16 letters at random
			literalsOnly(t, p)
			if blockType(p) != 2 {
				t.Fatal("first block is not a dynamic Huffman block")
			}
		}},
		{"65535-bytes", 65535, nil}, // one full chunk
		{"65536-bytes", 65536, nil}, // one full chunk and a 1-byte one
		{"131071-bytes", 131071, func(t *testing.T, p []byte) {
			// The second chunk matches into the first: the history changes
			// how it is cut.
			d := newDeflater()
			d.findMatches(p, 0, maxStoreBlockSize)
			n, _ := d.findMatches(p, maxStoreBlockSize, 2*maxStoreBlockSize)
			with := append([]uint64(nil), d.seqs[:n]...)
			d = newDeflater()
			n, _ = d.findMatches(p[maxStoreBlockSize:2*maxStoreBlockSize], 0, maxStoreBlockSize)
			if slices.Equal(with, d.seqs[:n]) {
				t.Fatal("no match reaches into the previous chunk")
			}
		}},
		{"fibonacci", -1, func(t *testing.T, p []byte) {
			// Letters A-Q with Fibonacci counts 1, 1, 2, …, 1597, shuffled,
			// each followed by a random lowercase letter or digit: a
			// literal code deeper than 15 bits.
			literalsOnly(t, p)
			var freq [maxLitCodes]int32
			for _, b := range p {
				freq[b]++
			}
			freq[endOfBlock] = 1
			var h huffScratch
			var codes [maxLitCodes]hcode
			if !h.build(codes[:], freq[:], 15) {
				t.Fatal("the literal code fits in 15 bits: package-merge does not run")
			}
		}},
		{"tweet-block", -1, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := readSeed(t, c.name)
			if c.size >= 0 && len(p) != c.size {
				t.Fatalf("seed of %d bytes, want %d", len(p), c.size)
			}
			if c.check != nil {
				c.check(t, p)
			}
		})
	}
}

// randomHistogram returns n frequencies, some zero, drawn from one of
// several shapes: tiny (many ties), uniform, exponential, powers of two
// (deep trees) and Fibonacci (deeper than any limit).
func randomHistogram(rng *rand.Rand, n int) []int32 {
	freq := make([]int32, n)
	mode := rng.Intn(6)
	a, b := int32(1), int32(1)
	for i := range freq {
		switch mode {
		case 0:
			freq[i] = int32(rng.Intn(4))
		case 1:
			freq[i] = int32(rng.Intn(1000))
		case 2:
			freq[i] = int32(rng.ExpFloat64() * 50)
		case 3:
			freq[i] = 1 << rng.Intn(16)
		case 4:
			freq[i] = int32(rng.Intn(65536))
		default:
			if a < 1<<20 {
				freq[i], a, b = a, b, a+b
			}
		}
	}
	rng.Shuffle(n, func(i, j int) { freq[i], freq[j] = freq[j], freq[i] })
	return freq
}

// packageMergeLengths is compress/flate's generate with bitCounts always:
// the symbols sorted by frequency then value, lengths from package-merge,
// the longest to the least frequent.
func packageMergeLengths(freq []int32, maxBits int) []uint8 {
	var list []freqNode
	for s, f := range freq {
		if f != 0 {
			list = append(list, freqNode{uint16(s), f})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].freq != list[j].freq {
			return list[i].freq < list[j].freq
		}
		return list[i].sym < list[j].sym
	})
	var count [16]int32
	packageMergeCounts(append(list, freqNode{})[:len(list)], int32(maxBits), &count) // room for the sentinel
	lens := make([]uint8, len(freq))
	i := 0
	for l := maxBits; l > 0; l-- {
		for range count[l] {
			lens[list[i].sym] = uint8(l)
			i++
		}
	}
	return lens
}

// treeNode is a node of huffmanDepth's tree: its weight, its height and
// when it was joined (0 for a symbol).
type treeNode struct {
	weight       int64
	height, born int
}

type treeHeap []treeNode

func (h treeHeap) Len() int { return len(h) }
func (h treeHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	// Equal weights: joined nodes before symbols, older joined nodes first.
	bi, bj := h[i].born, h[j].born
	return bi != 0 && (bj == 0 || bi < bj)
}
func (h treeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *treeHeap) Push(x any)   { *h = append(*h, x.(treeNode)) }
func (h *treeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// huffmanDepth is the depth of the Huffman tree over freq's nonzero
// frequencies that, on equal weights, joins joined nodes first.
func huffmanDepth(freq []int32) int {
	var h treeHeap
	for _, f := range freq {
		if f != 0 {
			h = append(h, treeNode{weight: int64(f)})
		}
	}
	heap.Init(&h)
	for born := 1; h.Len() > 1; born++ {
		a, b := heap.Pop(&h).(treeNode), heap.Pop(&h).(treeNode)
		heap.Push(&h, treeNode{a.weight + b.weight, max(a.height, b.height) + 1, born})
	}
	return h[0].height
}

// TestHuffmanLengths holds the two-queue code lengths to compress/flate's
// package-merge over random histograms of 3-286 symbols with limit 15 and
// 3-19 with limit 7, and checks that the fallback runs exactly when the
// Huffman tree is deeper than the limit.
func TestHuffmanLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h huffScratch
	var codes [maxLitCodes]hcode
	fallbacks := map[int]int{}
	for iter := 0; iter < 20000; iter++ {
		maxBits, n := 15, 3+rng.Intn(maxLitCodes-2)
		if iter%3 == 0 {
			maxBits, n = 7, 3+rng.Intn(numCLCodes-2)
		}
		freq := randomHistogram(rng, n)
		symbols := 0
		for _, f := range freq {
			if f != 0 {
				symbols++
			}
		}
		if symbols < 3 {
			continue
		}
		limited := h.build(codes[:n], freq, maxBits)
		want := packageMergeLengths(freq, maxBits)
		for s := range freq {
			if codes[s].len != uint16(want[s]) {
				t.Fatalf("limit %d, frequencies %v: symbol %d has length %d, package-merge gives %d", maxBits, freq, s, codes[s].len, want[s])
			}
		}
		if deep := huffmanDepth(freq) > maxBits; deep != limited {
			t.Fatalf("limit %d, frequencies %v: tree depth %d, fallback ran: %v", maxBits, freq, huffmanDepth(freq), limited)
		}
		if limited {
			fallbacks[maxBits]++
		}
	}
	if fallbacks[15] == 0 || fallbacks[7] == 0 {
		t.Fatalf("the fallback never ran for some limit: %v", fallbacks)
	}
}

// TestFlateOnlyInTests keeps the encoder and decoder the only DEFLATE code
// on the table path: compress/flate is their test oracle, nothing else.
func TestFlateOnlyInTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote("compress/flate") {
				t.Errorf("%s imports compress/flate", name)
			}
		}
	}
}
