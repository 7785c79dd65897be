package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkManifest is BENCHMARK.json.
type benchmarkManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*benchmarkManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m benchmarkManifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runAA runs every workload n times on this code, each run its own process
// with its own seed as the driver does, and prints per workload × metric
// the quartile distance as a share of the median (the driver's rule) and
// (max−min)/median. It returns non-zero when a run fails or a quartile
// spread other than setup_s exceeds the metric's bound.
func runAA(manifestPath string, n int, seed int64, seconds float64, out io.Writer) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range m.Workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: bad result line (%v)\n", w.Name, i, err)
				return 1
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		fmt.Fprintf(out, "%s (%d runs of %g s, seeds %d..%d)\n", w.Name, n, seconds, seed, seed+int64(n)-1)
		for _, em := range m.EndToEnd {
			vs := values[em.Name]
			if len(vs) != n {
				fmt.Fprintf(out, "  %-22s not printed by every run\n", em.Name)
				status = 1
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			iqr, rng := ratio(q3-q1, med), ratio(hi-lo, med)
			verdict := "ok"
			if em.Name != "setup_s" && iqr > *em.Bound {
				verdict = "TOO NOISY"
				status = 1
			} else if iqr > *em.Bound/3 {
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(out, "  %-22s median %12.4f %-5s iqr/median %.4f  (max-min)/median %.4f  bound %.2f  %s\n",
				em.Name, med, em.Unit, iqr, rng, *em.Bound, verdict)
		}
	}
	return status
}
