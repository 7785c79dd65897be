// Command lsmdb is the command-line front door to a LevelDB++ database:
// an interactive shell (and one-shot CLI) exposing the paper's full
// operation set (Table 1), plus the data tools.
//
// Usage:
//
//	lsmdb -db /tmp/tweets [-index lazy -attrs UserID,CreationTime] [command...]
//	lsmdb gen -mode dataset -tweets 100000 | lsmdb load -db /tmp/tweets
//	lsmdb gen -mode mixed -ratios read-heavy -ops 50000 | lsmdb load -db /tmp/tweets -replay
//	lsmdb dump [-blocks] [-entries] [-verify] file.sst
//
// A database records its index kind and attributes when it is created,
// so -index and -attrs (lazy on UserID,CreationTime by default) only
// matter for a new one; given for an existing one, they must match.
//
// Shell commands (one-shot via arguments, or read line-by-line from stdin):
//
//	put <key> <json-document>
//	get <key>
//	del <key>
//	lookup <attr> <value> [topK]
//	rangelookup <attr> <lo> <hi> [topK]
//	explain <get|lookup|rangelookup> <args...>  (EXPLAIN report as JSON)
//	stats
//	flush
//	check     (full checksum + structure audit of all tables)
//	checkpoint <dir>  (consistent backup of all tables)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"leveldbpp/internal/cli"
	"leveldbpp/internal/core"
	"leveldbpp/internal/explain"
)

// subcommands are the data tools, each run with the arguments after its
// name, the input it reads and the output it writes.
var subcommands = map[string]func(args []string, in io.Reader, out io.Writer) error{
	"gen":  gen,
	"load": load,
	"dump": dump,
}

// explainAll (-explain) routes every get/lookup/rangelookup through the
// EXPLAIN path, printing the report after the results.
var explainAll bool

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsmdb: ")
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			if err := run(os.Args[2:], os.Stdin, os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	open := cli.DBFlags(flag.CommandLine)
	flag.BoolVar(&explainAll, "explain", false,
		"print an EXPLAIN report (plan, I/O, cost-model prediction) after every get/lookup/rangelookup")
	flag.Parse()
	db, err := open(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := execute(db, args); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("lsmdb (%s index on %s) — type 'help'\n", db.Kind(), strings.Join(db.Attrs(), ","))
	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "exit" || fields[0] == "quit" {
			return
		}
		if err := execute(db, fields); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func execute(db *core.DB, args []string) error {
	switch args[0] {
	case "help":
		fmt.Println("put <key> <json> | get <key> | del <key> | lookup <attr> <value> [k] |",
			"rangelookup <attr> <lo> <hi> [k] | explain <get|lookup|rangelookup> <args...> |",
			"stats | flush | compact | check | checkpoint <dir> | exit")
		return nil
	case "explain":
		if len(args) < 2 {
			return fmt.Errorf("usage: explain <get|lookup|rangelookup> <args...>")
		}
		return query(db, args[1:], true)
	case "get", "lookup", "rangelookup":
		return query(db, args, explainAll)
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("usage: put <key> <json-document>")
		}
		return db.Put(args[1], []byte(strings.Join(args[2:], " ")))
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		return db.Delete(args[1])
	case "stats":
		s := db.Stats()
		prim, idx, err := db.DiskUsage()
		if err != nil {
			return err
		}
		fmt.Printf("disk: primary=%d index=%d bytes; filters=%d bytes in memory\n",
			prim, idx, db.FilterMemoryUsage())
		fmt.Printf("primary I/O: reads=%d writes=%d compaction=%d\n",
			s.Primary.BlockReads, s.Primary.BlockWrites, s.Primary.CompactionIO())
		fmt.Printf("index   I/O: reads=%d writes=%d compaction=%d\n",
			s.Index.BlockReads, s.Index.BlockWrites, s.Index.CompactionIO())
		fmt.Print(db.DebugString())
		return nil
	case "flush":
		return db.Flush()
	case "compact":
		return db.CompactRange("", "")
	case "checkpoint":
		if len(args) != 2 {
			return fmt.Errorf("usage: checkpoint <dest-dir>")
		}
		if err := db.Checkpoint(args[1]); err != nil {
			return err
		}
		fmt.Println("checkpoint written to", args[1])
		return nil
	case "check":
		reports, err := db.Verify()
		if err != nil {
			return err
		}
		ok := true
		for name, rep := range reports {
			fmt.Printf("%s: %d tables, %d blocks, %d entries", name, rep.Tables, rep.Blocks, rep.Entries)
			if rep.OK() {
				fmt.Println(" — OK")
				continue
			}
			ok = false
			fmt.Println()
			for _, p := range rep.Problems {
				fmt.Println("  PROBLEM:", p)
			}
		}
		if !ok {
			return fmt.Errorf("consistency check failed")
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", args[0])
	}
}

// query runs a get, lookup or rangelookup and prints its results; when
// explained, through the EXPLAIN path, followed by the indented-JSON
// report and its one-line summary.
func query(db *core.DB, args []string, explained bool) error {
	var rep *explain.Report
	switch args[0] {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		var v []byte
		var ok bool
		var err error
		if explained {
			v, ok, rep, err = db.ExplainGet(args[1])
		} else {
			v, ok, err = db.Get(args[1])
		}
		if err != nil {
			return err
		}
		if !ok {
			v = []byte("(not found)")
		}
		fmt.Println(string(v))
	case "lookup", "rangelookup":
		point := args[0] == "lookup"
		n := 4 // the arguments before topK: the op, attr, lo and hi
		if point {
			n = 3 // lo = hi
		}
		if len(args) < n {
			return fmt.Errorf("usage: lookup <attr> <value> [topK] | rangelookup <attr> <lo> <hi> [topK]")
		}
		k, err := optionalK(args, n)
		if err != nil {
			return err
		}
		attr, lo, hi := args[1], args[2], args[n-1]
		var entries []core.Entry
		switch {
		case explained && point:
			entries, rep, err = db.ExplainLookup(attr, lo, k)
		case explained:
			entries, rep, err = db.ExplainRangeLookup(attr, lo, hi, k)
		case point:
			entries, err = db.Lookup(attr, lo, k)
		default:
			entries, err = db.RangeLookup(attr, lo, hi, k)
		}
		if err != nil {
			return err
		}
		printEntries(entries)
	default:
		return fmt.Errorf("explain: unknown operation %q (get|lookup|rangelookup)", args[0])
	}
	if rep == nil {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	fmt.Println(rep.String())
	return nil
}

func optionalK(args []string, pos int) (int, error) {
	if len(args) <= pos {
		return 0, nil
	}
	k, err := strconv.Atoi(args[pos])
	if err != nil {
		return 0, fmt.Errorf("bad topK %q: %w", args[pos], err)
	}
	return k, nil
}

func printEntries(entries []core.Entry) {
	for _, e := range entries {
		fmt.Printf("%s\t%s\n", e.Key, e.Value)
	}
	fmt.Printf("(%d results)\n", len(entries))
}
