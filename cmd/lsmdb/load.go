package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"leveldbpp/internal/cli"
	"leveldbpp/internal/core"
)

// load ingests the JSON lines gen writes into the database -db names.
// A dataset line ({"id":..., ...attrs...}) is PUT under its "id"; with
// -replay, each line is an operation ({"op":"PUT","key":...,"value":{...}}
// etc.) and is executed. It reports throughput and operation counts.
func load(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	open := cli.DBFlags(fs)
	var (
		replay = fs.Bool("replay", false, "input is an operation stream, not a dataset")
		batch  = fs.Int("batch", 1, "group dataset PUTs into atomic batches of this size")
		quiet  = fs.Bool("quiet", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := open(core.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	start := time.Now()
	counts := map[string]int{}
	var pending core.Batch
	apply := func() error {
		if pending.Len() == 0 {
			return nil
		}
		defer pending.Reset()
		return db.Apply(&pending)
	}

	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if *replay {
			if err := replayOp(db, raw, counts); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
		} else {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(raw, &doc); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			var id string
			if err := json.Unmarshal(doc["id"], &id); err != nil || id == "" {
				return fmt.Errorf("line %d: missing or bad \"id\"", line)
			}
			delete(doc, "id")
			body, _ := json.Marshal(doc)
			pending.Put(id, body)
			counts["PUT"]++
			if pending.Len() >= *batch {
				if err := apply(); err != nil {
					return err
				}
			}
		}
		if !*quiet && line%100000 == 0 {
			fmt.Fprintf(os.Stderr, "lsmdb load: %d lines in %v\n", line, time.Since(start).Round(time.Second))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}

	elapsed := time.Since(start)
	if !*quiet {
		fmt.Fprintf(out, "lsmdb load: done in %v (%.0f lines/sec):", elapsed.Round(time.Millisecond),
			float64(line)/elapsed.Seconds())
		for op, n := range counts {
			fmt.Fprintf(out, " %s=%d", op, n)
		}
		fmt.Fprintln(out)
	}
	return db.Close()
}

func replayOp(db *core.DB, raw []byte, counts map[string]int) error {
	var op struct {
		Op    string          `json:"op"`
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value"`
		Attr  string          `json:"attr"`
		Lo    string          `json:"lo"`
		Hi    string          `json:"hi"`
		K     int             `json:"k"`
	}
	if err := json.Unmarshal(raw, &op); err != nil {
		return err
	}
	counts[op.Op]++
	switch op.Op {
	case "PUT", "UPDATE":
		return db.Put(op.Key, op.Value)
	case "GET":
		_, _, err := db.Get(op.Key)
		return err
	case "LOOKUP":
		// gen writes the lookup value in "value" as a JSON string; any
		// other value is looked up as its raw bytes.
		var v string
		if json.Unmarshal(op.Value, &v) != nil {
			v = string(op.Value)
		}
		_, err := db.Lookup(op.Attr, v, op.K)
		return err
	case "RANGELOOKUP":
		_, err := db.RangeLookup(op.Attr, op.Lo, op.Hi, op.K)
		return err
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}
