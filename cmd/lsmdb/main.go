// Command lsmdb is an interactive shell (and one-shot CLI) for a
// LevelDB++ database, exposing the paper's full operation set (Table 1).
//
// Usage:
//
//	lsmdb -db /tmp/tweets -index lazy -attrs UserID,CreationTime [command...]
//
// Commands (one-shot via arguments, or read line-by-line from stdin):
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
	"os"
	"strconv"
	"strings"

	"leveldbpp/internal/core"
	"leveldbpp/internal/explain"
)

// explainAll (-explain) routes every get/lookup/rangelookup through the
// EXPLAIN path, printing the report after the results.
var explainAll bool

func main() {
	var (
		dir   = flag.String("db", "", "database directory (required)")
		index = flag.String("index", "lazy", "index kind: none|embedded|eager|lazy|composite")
		attrs = flag.String("attrs", "UserID,CreationTime", "comma-separated indexed attributes")
	)
	flag.BoolVar(&explainAll, "explain", false,
		"print an EXPLAIN report (plan, I/O, cost-model prediction) after every get/lookup/rangelookup")
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-db is required"))
	}
	kind, err := core.ParseIndexKind(*index)
	if err != nil {
		fatal(err)
	}
	db, err := core.Open(*dir, core.Options{
		Index: kind,
		Attrs: strings.Split(*attrs, ","),
	})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := execute(db, args); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("lsmdb (%s index on %s) — type 'help'\n", kind, *attrs)
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
		return executeExplain(db, args[1:])
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("usage: put <key> <json-document>")
		}
		return db.Put(args[1], []byte(strings.Join(args[2:], " ")))
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		if explainAll {
			return executeExplain(db, args)
		}
		v, ok, err := db.Get(args[1])
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("(not found)")
			return nil
		}
		fmt.Println(string(v))
		return nil
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		return db.Delete(args[1])
	case "lookup":
		if len(args) < 3 {
			return fmt.Errorf("usage: lookup <attr> <value> [topK]")
		}
		if explainAll {
			return executeExplain(db, args)
		}
		k, err := optionalK(args, 3)
		if err != nil {
			return err
		}
		entries, err := db.Lookup(args[1], args[2], k)
		if err != nil {
			return err
		}
		printEntries(entries)
		return nil
	case "rangelookup":
		if len(args) < 4 {
			return fmt.Errorf("usage: rangelookup <attr> <lo> <hi> [topK]")
		}
		if explainAll {
			return executeExplain(db, args)
		}
		k, err := optionalK(args, 4)
		if err != nil {
			return err
		}
		entries, err := db.RangeLookup(args[1], args[2], args[3], k)
		if err != nil {
			return err
		}
		printEntries(entries)
		return nil
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

// executeExplain runs one operation through the EXPLAIN path and prints
// results followed by the indented-JSON report and its one-line summary.
func executeExplain(db *core.DB, args []string) error {
	var rep *explain.Report
	switch args[0] {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: explain get <key>")
		}
		v, ok, r, err := db.ExplainGet(args[1])
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("(not found)")
		} else {
			fmt.Println(string(v))
		}
		rep = r
	case "lookup":
		if len(args) < 3 {
			return fmt.Errorf("usage: explain lookup <attr> <value> [topK]")
		}
		k, err := optionalK(args, 3)
		if err != nil {
			return err
		}
		entries, r, err := db.ExplainLookup(args[1], args[2], k)
		if err != nil {
			return err
		}
		printEntries(entries)
		rep = r
	case "rangelookup":
		if len(args) < 4 {
			return fmt.Errorf("usage: explain rangelookup <attr> <lo> <hi> [topK]")
		}
		k, err := optionalK(args, 4)
		if err != nil {
			return err
		}
		entries, r, err := db.ExplainRangeLookup(args[1], args[2], args[3], k)
		if err != nil {
			return err
		}
		printEntries(entries)
		rep = r
	default:
		return fmt.Errorf("explain: unknown operation %q (get|lookup|rangelookup)", args[0])
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmdb:", err)
	os.Exit(1)
}
