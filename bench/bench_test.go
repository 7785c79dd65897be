package main

import (
	"io"
	"math"
	"regexp"
	"sort"
	"testing"

	"leveldbpp/internal/workload"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	digest := func(sp *spec, seed int64) uint64 {
		st := newStream(sp, seed, 0)
		return digestOps(append(st.preload(300), st.chunk(700)...))
	}
	for _, sp := range specs {
		if digest(sp, 1) != digest(sp, 1) {
			t.Errorf("%s: same seed, different streams", sp.name)
		}
		if digest(sp, 1) == digest(sp, 2) {
			t.Errorf("%s: different seeds, same stream", sp.name)
		}
	}
}

func TestStreamHoldsTheMixInEveryBlock(t *testing.T) {
	for _, sp := range specs {
		st := newStream(sp, 3, 0)
		st.preload(200)
		var got [workload.OpUpdate + 1]int
		for _, op := range st.chunk(100) {
			got[op.Kind]++
		}
		want := [workload.OpUpdate + 1]int{
			workload.OpPut: sp.put, workload.OpGet: sp.get, workload.OpLookup: sp.lookup,
			workload.OpRangeLookup: sp.ranges, workload.OpUpdate: sp.update,
		}
		if got != want {
			t.Errorf("%s: block mix %v, want %v", sp.name, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	ns := []int64{50, 10, 40, 20, 30}
	if got := mean(ns); got != 30 {
		t.Errorf("mean = %v, want 30", got)
	}
	for q, want := range map[float64]float64{0.5: 30, 0.99: 50, 0.2: 10, 0.21: 20} {
		if got := percentile(ns, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := trimmedMean(ns, 0.8); got != 25 {
		t.Errorf("trimmedMean(0.8) = %v, want 25", got)
	}
	if mean(nil) != 0 || percentile(nil, 0.5) != 0 || trimmedMean(nil, 0.99) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must give 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

// smokeConfig is a workload at about 1 % of its real size.
func smokeConfig(t *testing.T, name string, trace bool) *config {
	sp := *specByName(name)
	sp.chunk /= 20
	return &config{sp: &sp, seed: 7, seconds: 0.05, trace: trace, preload: 600, setups: 1, tmp: t.TempDir(), log: io.Discard}
}

func TestVerifierRejectsAWrongResult(t *testing.T) {
	cfg := smokeConfig(t, "wh-lazy", false)
	r, err := newRig(cfg, newReference())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.segment(&tally{}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("clean segment: %d failed of %d", r.failed, r.attempted)
	}
	known := r.streams[0].tweet(r.streams[0].written[0])
	get := workload.Op{Kind: workload.OpGet, Key: known.ID}
	const busiest = "u0000000" // rank 1 of the Zipf population: many tweets at any scale
	lookup := workload.Op{Kind: workload.OpLookup, Attr: workload.AttrUser, Lo: busiest, Hi: busiest, K: topK}
	for _, op := range []workload.Op{get, lookup} {
		cl := r.clients[0]
		if err := cl.prepare([]workload.Op{op}); err != nil {
			t.Fatal(err)
		}
		if err := cl.do(0); err != nil {
			t.Fatal(err)
		}
		right, err := cl.digest(0)
		if err != nil {
			t.Fatal(err)
		}
		before := r.failed
		r.check(0, &op, right, nil)
		if r.failed != before {
			t.Errorf("%s: the engine's own answer was rejected", op.Kind)
		}
		r.check(0, &op, right^1, nil)
		if r.failed != before+1 {
			t.Errorf("%s: an injected wrong result was accepted", op.Kind)
		}
	}
	// A result that drops its newest entry is wrong as well.
	full, _ := r.models[0].expect(&lookup)
	lookup.K = 1
	if one, _ := r.models[0].expect(&lookup); one == full || one == fnvOffset {
		t.Error("the model does not tell a truncated result from a full one")
	}
}

func TestInvariantsOfConcurrentResults(t *testing.T) {
	op := workload.Op{Kind: workload.OpLookup, Attr: workload.AttrUser, Lo: "u0000001", Hi: "u0000001", K: 2}
	entry := func(user string, seq uint64) wireEntry {
		e := wireEntry{Key: "k", Seq: seq}
		e.Value.UserID = user
		return e
	}
	if err := checkInvariants(&op, []wireEntry{entry("u0000001", 9), entry("u0000001", 4)}); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	for name, bad := range map[string][]wireEntry{
		"too many":       {entry("u0000001", 9), entry("u0000001", 4), entry("u0000001", 2)},
		"wrong attr":     {entry("u0000002", 9)},
		"oldest first":   {entry("u0000001", 4), entry("u0000001", 9)},
		"repeated entry": {entry("u0000001", 4), entry("u0000001", 4)},
	} {
		if checkInvariants(&op, bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAndManifest runs every workload at 1 % scale in both modes and
// holds BENCHMARK.json to what the driver prints: every declared name
// printed with the declared unit, every printed name declared.
func TestSmokeAndManifest(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in the driver", n, len(specs))
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	declared := func(ms []manifestMetric, bounded bool) map[string]string {
		units := map[string]string{}
		for _, mm := range ms {
			if !metricName.MatchString(mm.Name) || units[mm.Name] != "" {
				t.Errorf("metric name %q is malformed or repeated", mm.Name)
			}
			if mm.Better != "lower" && mm.Better != "higher" {
				t.Errorf("%s: better = %q", mm.Name, mm.Better)
			}
			if bounded != (mm.Bound != nil) || bounded && (*mm.Bound <= 0 || *mm.Bound > 0.25) {
				t.Errorf("%s: bound %v", mm.Name, mm.Bound)
			}
			units[mm.Name] = mm.Unit
		}
		return units
	}
	want := map[bool]map[string]string{false: declared(m.EndToEnd, true), true: declared(m.PerLayer, false)}
	if want[false]["setup_s"] != "s" {
		t.Error("setup_s is not declared in seconds")
	}

	for i, w := range m.Workloads {
		if sp := specs[i]; w.Name != sp.name || w.Why != sp.why || !metricName.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest has %q, driver has %q", i, w.Name, sp.name)
			continue
		}
		for _, trace := range []bool{false, true} {
			res, err := run(smokeConfig(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, mv := range res.Metrics {
				got[name] = mv.Unit
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, mv.Value)
				}
			}
			if !sameKeysAndValues(got, want[trace]) {
				t.Errorf("%s trace=%v prints %v\nmanifest declares %v", w.Name, trace, sorted(got), sorted(want[trace]))
			}
		}
	}
}

func sameKeysAndValues(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
