package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"leveldbpp/internal/workload"
)

// gen emits a synthetic Twitter-style dataset or operation stream as JSON
// lines, reproducing the paper's open-sourced workload generator:
//
//	dataset lines: {"id":...,"UserID":...,"CreationTime":...,"Text":...}
//	op lines:      {"op":"PUT","key":...,"value":{...}} etc.
func gen(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		mode   = fs.String("mode", "dataset", "dataset | mixed")
		tweets = fs.Int("tweets", 10000, "dataset size")
		users  = fs.Int("users", 0, "user population (0 = tweets/30)")
		ops    = fs.Int("ops", 10000, "mixed-mode operation count")
		ratios = fs.String("ratios", "write-heavy", "write-heavy | read-heavy | update-heavy")
		topK   = fs.Int("topk", 10, "LOOKUP top-K in mixed mode")
		seed   = fs.Int64("seed", 2018, "RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	switch *mode {
	case "dataset":
		g := workload.NewGenerator(workload.Config{Tweets: *tweets, Users: *users, Seed: *seed})
		for t, ok := g.Next(); ok; t, ok = g.Next() {
			if err := enc.Encode(map[string]string{
				"id":           t.ID,
				"UserID":       t.UserID,
				"CreationTime": workload.EncodeTime(t.Creation),
				"Text":         t.Text,
			}); err != nil {
				return err
			}
		}
	case "mixed":
		mix, ok := map[string]workload.MixRatios{
			"write-heavy":  workload.WriteHeavy,
			"read-heavy":   workload.ReadHeavy,
			"update-heavy": workload.UpdateHeavy,
		}[*ratios]
		if !ok {
			return fmt.Errorf("gen: unknown ratios %q", *ratios)
		}
		m := workload.NewMixed(workload.Config{Seed: *seed, Users: *users}, mix, *ops, *topK)
		for op, ok := m.Next(); ok; op, ok = m.Next() {
			rec := map[string]any{"op": op.Kind.String()}
			switch op.Kind {
			case workload.OpPut, workload.OpUpdate:
				rec["key"] = op.Key
				rec["value"] = json.RawMessage(op.Value)
			case workload.OpGet:
				rec["key"] = op.Key
			case workload.OpLookup:
				rec["attr"], rec["value"], rec["k"] = op.Attr, op.Lo, op.K
			case workload.OpRangeLookup:
				rec["attr"], rec["lo"], rec["hi"], rec["k"] = op.Attr, op.Lo, op.Hi, op.K
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("gen: unknown mode %q", *mode)
	}
	// The last buffered lines reach the pipe here; a full disk or a
	// closed output must not exit 0.
	return w.Flush()
}
