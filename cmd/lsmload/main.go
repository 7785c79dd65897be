// Command lsmload ingests JSON-lines data into a LevelDB++ database —
// the consumer side of cmd/workloadgen:
//
//	workloadgen -mode dataset -tweets 100000 | lsmload -db /tmp/tweets -index lazy
//	workloadgen -mode mixed -ratios read-heavy -ops 50000 | lsmload -db /tmp/tweets -replay
//
// Dataset mode (default) expects {"id":..., ...attrs...} lines and PUTs
// each document under its "id". Replay mode (-replay) expects operation
// lines ({"op":"PUT","key":...,"value":{...}} etc.) and executes them,
// reporting throughput and query counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"leveldbpp/internal/core"
)

func main() {
	var (
		dir    = flag.String("db", "", "database directory (required)")
		index  = flag.String("index", "lazy", "index kind: none|embedded|eager|lazy|composite")
		attrs  = flag.String("attrs", "UserID,CreationTime", "comma-separated indexed attributes")
		replay = flag.Bool("replay", false, "input is an operation stream, not a dataset")
		batch  = flag.Int("batch", 1, "group dataset PUTs into atomic batches of this size")
		quiet  = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-db is required"))
	}
	kind, err := core.ParseIndexKind(*index)
	if err != nil {
		fatal(err)
	}
	db, err := core.Open(*dir, core.Options{Index: kind, Attrs: strings.Split(*attrs, ",")})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	start := time.Now()
	counts := map[string]int{}
	var pending core.Batch

	flush := func() {
		if pending.Len() > 0 {
			if err := db.Apply(&pending); err != nil {
				fatal(err)
			}
			pending.Reset()
		}
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
				fatal(fmt.Errorf("line %d: %w", line, err))
			}
		} else {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(raw, &doc); err != nil {
				fatal(fmt.Errorf("line %d: %w", line, err))
			}
			var id string
			if err := json.Unmarshal(doc["id"], &id); err != nil || id == "" {
				fatal(fmt.Errorf("line %d: missing or bad \"id\"", line))
			}
			delete(doc, "id")
			body, _ := json.Marshal(doc)
			pending.Put(id, body)
			counts["PUT"]++
			if pending.Len() >= *batch {
				flush()
			}
		}
		if !*quiet && line%100000 == 0 {
			fmt.Fprintf(os.Stderr, "lsmload: %d lines in %v\n", line, time.Since(start).Round(time.Second))
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	flush()
	if err := db.Flush(); err != nil {
		fatal(err)
	}

	elapsed := time.Since(start)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "lsmload: done in %v (%.0f lines/sec):", elapsed.Round(time.Millisecond),
			float64(line)/elapsed.Seconds())
		for op, n := range counts {
			fmt.Fprintf(os.Stderr, " %s=%d", op, n)
		}
		fmt.Fprintln(os.Stderr)
	}
}

func replayOp(db *core.DB, raw []byte, counts map[string]int) error {
	var op struct {
		Op    string          `json:"op"`
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value"`
		Attr  string          `json:"attr"`
		Val   string          `json:"value_str"`
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
		// workloadgen emits the lookup value in "value"; it may be a JSON
		// string.
		v := op.Val
		if v == "" {
			if json.Unmarshal(op.Value, &v) != nil {
				// Not a JSON string: fall back to the raw bytes.
				v = string(op.Value)
			}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmload:", err)
	os.Exit(1)
}
