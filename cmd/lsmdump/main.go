// Command lsmdump inspects SSTable files — the analogue of LevelDB's
// sst_dump, extended with the Embedded index structures this format adds.
//
// Usage:
//
//	lsmdump file.sst              # summary: entries, blocks, key range, attrs
//	lsmdump -blocks file.sst      # per-block key ranges, max seqs and secondary zone maps
//	lsmdump -entries file.sst     # every entry (key@seq:kind → value)
//	lsmdump -verify file.sst      # full checksum scan
package main

import (
	"flag"
	"fmt"
	"os"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/sstable"
)

func main() {
	var (
		showBlocks  = flag.Bool("blocks", false, "print per-block metadata")
		showEntries = flag.Bool("entries", false, "print every entry")
		verify      = flag.Bool("verify", false, "read and checksum every block")
		maxValue    = flag.Int("maxvalue", 80, "truncate printed values to this many bytes")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lsmdump [-blocks] [-entries] [-verify] <file.sst>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		fatal(err)
	}
	tbl, err := sstable.OpenTable(f, fi.Size(), nil)
	if err != nil {
		fatal(fmt.Errorf("open table: %w", err))
	}

	fmt.Printf("file:      %s (%d bytes)\n", path, fi.Size())
	fmt.Printf("entries:   %d in %d blocks\n", tbl.EntryCount(), tbl.NumBlocks())
	fmt.Printf("max seq:   %d\n", tbl.MaxSeq())
	if tbl.EntryCount() > 0 {
		fmt.Printf("key range: %s .. %s\n", ikey.String(tbl.Smallest()), ikey.String(tbl.Largest()))
	}
	attrs := tbl.SecondaryAttrs()
	if len(attrs) > 0 {
		fmt.Printf("embedded secondary attributes (%d):\n", len(attrs))
		for _, a := range attrs {
			if min, max, ok := tbl.FileZone(a); ok {
				fmt.Printf("  %-16s file zone [%q, %q]\n", a, min, max)
			} else {
				fmt.Printf("  %-16s (no values)\n", a)
			}
		}
	}
	fmt.Printf("filter memory: %d bytes\n", tbl.FilterMemoryBytes())

	if *showBlocks {
		fmt.Println("\nblocks:")
		for i := 0; i < tbl.NumBlocks(); i++ {
			first, last := tbl.BlockRange(i)
			maxSeq := "table max"
			if tbl.HasBlockMaxSeqs() {
				maxSeq = fmt.Sprint(tbl.BlockMaxSeq(i))
			}
			fmt.Printf("  block %4d: %s .. %s  max seq %s\n", i, ikey.String(first), ikey.String(last), maxSeq)
			for _, a := range attrs {
				if min, max, ok := tbl.BlockZone(a, i); ok {
					fmt.Printf("    %-14s zone [%q, %q]\n", a, min, max)
				}
			}
		}
	}

	if *showEntries {
		fmt.Println("\nentries:")
		it := tbl.NewIterator(false)
		for it.Next() {
			v := it.Value()
			suffix := ""
			if len(v) > *maxValue {
				v = v[:*maxValue]
				suffix = "…"
			}
			fmt.Printf("  %s → %s%s\n", ikey.String(it.Key()), v, suffix)
		}
		if err := it.Err(); err != nil {
			fatal(fmt.Errorf("iterating: %w", err))
		}
	}

	if *verify {
		it := tbl.NewIterator(false)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			fatal(fmt.Errorf("VERIFY FAILED: %w", err))
		}
		if n != tbl.EntryCount() {
			fatal(fmt.Errorf("VERIFY FAILED: iterated %d entries, meta says %d", n, tbl.EntryCount()))
		}
		fmt.Printf("verify: OK (%d entries, all checksums valid)\n", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmdump:", err)
	os.Exit(1)
}
