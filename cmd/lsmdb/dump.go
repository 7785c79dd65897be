package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"leveldbpp/internal/ikey"
	"leveldbpp/internal/sstable"
)

// dump inspects one SSTable file, the analogue of LevelDB's sst_dump
// extended with the Embedded index structures this format adds: a
// summary (entries, blocks, key range, attributes), and on request each
// block's key range, max seq and secondary zone maps (-blocks), every
// entry (-entries) or a full checksum scan (-verify).
func dump(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	var (
		showBlocks  = fs.Bool("blocks", false, "print per-block metadata")
		showEntries = fs.Bool("entries", false, "print every entry")
		verify      = fs.Bool("verify", false, "read and checksum every block")
		maxValue    = fs.Int("maxvalue", 80, "truncate printed values to this many bytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: lsmdb dump [-blocks] [-entries] [-verify] <file.sst>")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	tbl, err := sstable.OpenTable(f, fi.Size(), nil)
	if err != nil {
		return fmt.Errorf("open table: %w", err)
	}

	fmt.Fprintf(out, "file:      %s (%d bytes)\n", path, fi.Size())
	fmt.Fprintf(out, "entries:   %d in %d blocks\n", tbl.EntryCount(), tbl.NumBlocks())
	fmt.Fprintf(out, "max seq:   %d\n", tbl.MaxSeq())
	if tbl.EntryCount() > 0 {
		fmt.Fprintf(out, "key range: %s .. %s\n", ikey.String(tbl.Smallest()), ikey.String(tbl.Largest()))
	}
	attrs := tbl.SecondaryAttrs()
	if len(attrs) > 0 {
		fmt.Fprintf(out, "embedded secondary attributes (%d):\n", len(attrs))
		for _, a := range attrs {
			if min, max, ok := tbl.FileZone(a); ok {
				fmt.Fprintf(out, "  %-16s file zone [%q, %q]\n", a, min, max)
			} else {
				fmt.Fprintf(out, "  %-16s (no values)\n", a)
			}
		}
	}
	fmt.Fprintf(out, "filter memory: %d bytes\n", tbl.FilterMemoryBytes())

	if *showBlocks {
		fmt.Fprintln(out, "\nblocks:")
		for i := 0; i < tbl.NumBlocks(); i++ {
			first, last := tbl.BlockRange(i)
			maxSeq := "table max"
			if tbl.HasBlockMaxSeqs() {
				maxSeq = fmt.Sprint(tbl.BlockMaxSeq(i))
			}
			fmt.Fprintf(out, "  block %4d: %s .. %s  max seq %s\n", i, ikey.String(first), ikey.String(last), maxSeq)
			for _, a := range attrs {
				if min, max, ok := tbl.BlockZone(a, i); ok {
					fmt.Fprintf(out, "    %-14s zone [%q, %q]\n", a, min, max)
				}
			}
		}
	}

	if *showEntries {
		fmt.Fprintln(out, "\nentries:")
		it := tbl.NewIterator(false)
		for it.Next() {
			v := it.Value()
			suffix := ""
			if len(v) > *maxValue {
				v = v[:*maxValue]
				suffix = "…"
			}
			fmt.Fprintf(out, "  %s → %s%s\n", ikey.String(it.Key()), v, suffix)
		}
		if err := it.Err(); err != nil {
			return fmt.Errorf("iterating: %w", err)
		}
	}

	if *verify {
		it := tbl.NewIterator(false)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			return fmt.Errorf("VERIFY FAILED: %w", err)
		}
		if n != tbl.EntryCount() {
			return fmt.Errorf("VERIFY FAILED: iterated %d entries, meta says %d", n, tbl.EntryCount())
		}
		fmt.Fprintf(out, "verify: OK (%d entries, all checksums valid)\n", n)
	}
	return nil
}
