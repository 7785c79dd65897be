// Command bench is the repository's end-to-end benchmark: four closed-loop
// workloads through the real front doors (core.DB in-process, the HTTP
// server over loopback), checked against a reference model, with a second,
// traced mode that reports one budget per layer. See README.md.
//
//	bash bench/run.sh --workload wh-lazy --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"leveldbpp/internal/core"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: wh-lazy, rh-embedded, uh-composite or http-rh-lazy")
		seed     = flag.Int64("seed", 1, "seed of the operation streams")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase: the run executes the workload's nominal rate times this many operations")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
		aa       = flag.Int("aa", 0, "run every workload this many times on this code and gate the spreads against BENCHMARK.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "manifest the -aa mode reads workloads, metrics and bounds from")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*manifest, *aa, *seed, *seconds, os.Stdout))
	}
	sp := specByName(*name)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := &config{
		sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0,
		preload: preloadTweets, setups: 3, log: os.Stderr,
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; the time goes to the probes
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// setupTimes are the set-ups of one run, as the wall clock gave them and at
// reference speed.
type setupTimes struct {
	wall, ref []float64     // seconds
	slices    time.Duration // sum of the two reference slices beside each set-up
}

// setUp sets the system up cfg.setups times and keeps the last one.
func setUp(cfg *config, ref *reference) (r *rig, st setupTimes, err error) {
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		before := ref.slice()
		if r, err = newRig(cfg, ref); err != nil {
			return nil, st, err
		}
		st.wall = append(st.wall, r.setup.Seconds())
		st.ref = append(st.ref, r.setup.Seconds()*atReference(before, r.slice))
		st.slices += before + r.slice
	}
	return r, st, nil
}

// measure runs the warm-up and the timed segments. In a traced run odd
// segments go to tr with the tracer and the server span on, even ones to un.
func measure(cfg *config, r *rig) (un, tr tally, segOps []float64, err error) {
	sp := cfg.sp
	// Warm-up: one discarded segment after a collection, so timing starts
	// with warm connections, paged-in tables and a settled heap.
	runtime.GC()
	if err = r.segment(&tally{}); err != nil {
		return
	}
	if r.events != nil {
		r.events.enable()
	}
	// A run is a fixed number of segments. The deadline keeps a throttled
	// box (this one slows by 1.5–1.7× under sustained load) or a much slower
	// change inside the driver's time limits.
	deadline := time.Duration(2 * cfg.seconds * float64(time.Second))
	for seg := 0; seg < sp.segments(cfg.seconds) && un.wall+tr.wall < deadline; seg++ {
		traced := cfg.trace && seg%2 == 1
		r.setTracing(traced)
		t := &un
		if traced {
			t = &tr
		}
		before := t.wall
		if err = r.segment(t); err != nil {
			return
		}
		segOps = append(segOps, ratio(float64(sp.chunk*sp.clients), (t.wall-before).Seconds()))
	}
	r.setTracing(false)
	return
}

// run performs one invocation: set-ups, warm-up, timed segments, checks and
// (traced) the per-layer measurements. The report goes to out; the result
// carries the metrics the mode asks for.
func run(cfg *config, out io.Writer) (*result, error) {
	sp := cfg.sp
	ref := newReference()
	ref.slice() // warm the codec's code paths before any slice counts
	r, setups, err := setUp(cfg, ref)
	if err != nil {
		return nil, err
	}
	defer r.close()
	un, tr, segOps, err := measure(cfg, r)
	if err != nil {
		return nil, err
	}

	in := &layerInputs{sp: sp, un: &un, tr: &tr}
	shape := r.db.LevelShapes()["primary"]
	in.levels = len(shape)
	if len(shape) > 0 {
		in.l0Files = shape[0].Files
	}
	if cfg.trace {
		in.ph = readPhases(r.tracer)
		in.events = r.events.totals()
		if r.span != nil {
			in.span = r.span.totals()
		}
		if in.explain, err = sampleExplain(r.db, r.streams[0], cfg.seed, 100); err != nil {
			return nil, fmt.Errorf("explain: %w", err)
		}
	}

	// Space and memory are read on a flushed tree, so neither depends on
	// how full the MemTables happened to be when time ran out.
	if err := r.db.Flush(); err != nil {
		return nil, err
	}
	diskPrimary, diskIndex, err := r.db.DiskUsage()
	if err != nil {
		return nil, err
	}
	var live int64
	for _, m := range r.models {
		live += m.liveBytes
	}
	// live_heap_mb is what the open database (and server) holds: the heap
	// with it open minus the heap once it is closed and dropped. Whatever
	// the benchmark itself holds is dropped before the first reading or kept
	// past the second, so it cancels.
	r.models, r.streams = nil, nil
	for _, cl := range r.clients {
		if err := cl.prepare(nil); err != nil {
			return nil, err
		}
	}
	open := heapMiB()
	sliceSum, slices := r.sliceSum, r.slices
	dir := r.dir
	r.dir = "" // keep the files for the probes
	r.close()
	defer os.RemoveAll(dir)
	closed := heapMiB()

	if cfg.trace {
		if err := probeTables(dir, sp, &in.probes); err != nil {
			return nil, err
		}
		if err := probeWrites(dir, sp, cfg.seed, &in.probes); err != nil {
			return nil, err
		}
	}

	// Timings are wall-clock times brought to reference speed (ref.go);
	// counts and sizes are as counted.
	e2e := timings(median(setups.ref), un.opsPerSRef(), &un.latRef)
	e2e["write_amp"] = metricValue{ratio(float64(written(un.io)), float64(un.userBytes)), "ratio"}
	e2e["space_amp"] = metricValue{ratio(float64(diskPrimary+diskIndex), float64(live)), "ratio"}
	e2e["blocks_read_per_op"] = metricValue{ratio(float64(blocksRead(un.io)), float64(un.ops)), "count"}
	e2e["live_heap_mb"] = metricValue{open - closed, "MiB"}
	raw := timings(median(setups.wall), un.opsPerS(), &un.lat)
	segmentSlice := sliceSum / time.Duration(max(1, slices))
	in.referenceMS = float64(segmentSlice) / 1e6

	env := readEnvironment(cfg.tmp)
	fmt.Fprintf(out, "workload %s seed %d trace %v: %s\n", sp.name, cfg.seed, cfg.trace, sp.why)
	envJSON, _ := json.Marshal(env) // a struct of strings and ints
	fmt.Fprintf(out, "env %s\n", envJSON)
	fmt.Fprintf(out, "preload %d tweets; set-ups %.3f s; measured %.3f s untraced + %.3f s traced; ops %d + %d\n",
		cfg.preload, setups.wall, un.wall.Seconds(), tr.wall.Seconds(), un.ops, tr.ops)
	for c, class := range classNames {
		fmt.Fprintf(out, "samples %-12s %d\n", class, len(un.lat[c])+len(tr.lat[c]))
	}
	fmt.Fprintf(out, "segment ops/s %.0f\n", segOps)
	if want := sp.segments(cfg.seconds); len(segOps) < want {
		fmt.Fprintf(out, "DEADLINE: stopped after %d of %d segments\n", len(segOps), want)
	}
	fmt.Fprintf(out, "reference slice %.3f ms beside the set-ups, %.3f ms beside the segments (nominal %.1f ms)\n",
		float64(setups.slices)/float64(2*cfg.setups)/1e6, float64(segmentSlice)/1e6, float64(refNominal)/1e6)
	fmt.Fprintln(out, "end-to-end metrics, timings at reference speed:")
	printMetrics(out, e2e)
	fmt.Fprintln(out, "the same timings as the wall clock gave them:")
	printMetrics(out, raw)
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: e2e}
	if cfg.trace {
		res.Metrics = layerMetrics(in)
		fmt.Fprintln(out, "per-layer metrics, timings as the wall clock gave them:")
		printMetrics(out, res.Metrics)
		res.Failed += selfChecks(out, sp, res.Metrics)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// readTrim is the share of GET, LOOKUP and RANGELOOKUP samples their means
// are taken over. The slowest 1 % are mostly waits: with two clients a read
// now and then queues behind the other client's inline flush or compaction
// for tens of milliseconds, a handful of such reads moves a mean by 20–40 %,
// and which operation type they hit is chance. They are what
// core.*_p99_us reports. PUT means keep every sample: the flushes and
// compactions they carry are the point.
const readTrim = 0.99

// timings are the end-to-end timing metrics of one set of latency samples.
// The query medians are left out: they sit between two modes (trace.go).
func timings(setupS, opsPerS float64, lat *[numClasses][]int64) map[string]metricValue {
	m := map[string]metricValue{
		"setup_s":     {setupS, "s"},
		"ops_per_s":   {opsPerS, "1/s"},
		"put_mean_us": {mean(lat[classPut]) / 1e3, "us"},
		"put_p50_us":  {percentile(lat[classPut], 0.5) / 1e3, "us"},
		"get_p50_us":  {percentile(lat[classGet], 0.5) / 1e3, "us"},
	}
	for _, c := range []int{classGet, classLookup, classRange} {
		m[classNames[c]+"_tmean_us"] = metricValue{trimmedMean(lat[c], readTrim) / 1e3, "us"}
	}
	return m
}

// written is every byte flushes and compactions wrote, primary and index.
func written(s core.Stats) int64 {
	return s.Primary.BlockWriteBytes + s.Primary.CompactionWriteBytes +
		s.Index.BlockWriteBytes + s.Index.CompactionWriteBytes
}

// blocksRead is the paper's I/O per query: blocks fetched or served by the
// cache on the read path, primary and index.
func blocksRead(s core.Stats) int64 {
	return s.Primary.BlockReads + s.Primary.CacheHits + s.Index.BlockReads + s.Index.CacheHits
}

func printMetrics(out io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// selfChecks holds the traced run to what the workload's rationale claims.
// A claim that follows from the index kind alone (no postings on Embedded
// and Composite) fails the run when broken. A claim about where the time
// goes or how the cache fares is only reported: a change that makes PUTs
// twice as fast lowers the PUT share of wh-lazy, and must not be rejected
// for it by a benchmark it is not allowed to edit.
func selfChecks(out io.Writer, sp *spec, m map[string]metricValue) (failed int64) {
	v := func(name string) float64 { return m[name].Value }
	check := func(ok, fatal bool, format string, args ...any) {
		verdict := "ok"
		if !ok && fatal {
			verdict = "FAILED"
			failed++
		} else if !ok {
			verdict = "NOT MET (reported only)"
		}
		fmt.Fprintf(out, "self-check %s: %s: %s\n", sp.name, fmt.Sprintf(format, args...), verdict)
	}
	switch sp.name {
	case "wh-lazy":
		check(v("core.put_time_share") >= 0.60, false, "PUT time share %.3f >= 0.60", v("core.put_time_share"))
	case "rh-embedded":
		check(v("core.query_time_share") >= 0.85, false, "secondary-query time share %.3f >= 0.85", v("core.query_time_share"))
	case "uh-composite":
		check(v("cache.hit_rate") < 0.95, false, "cache hit rate %.3f < 0.95 (cache under pressure)", v("cache.hit_rate"))
	case "http-rh-lazy":
		check(v("cache.hit_rate") >= 0.95, false, "cache hit rate %.3f >= 0.95 (data fits)", v("cache.hit_rate"))
	}
	// Composite has no posting lists to decode, but the engine books its
	// candidate sort under the posting-merge phase and every index entry its
	// prefix scan visits under the posting-entries counter, so those two
	// metrics are its sort time and its scan length.
	zero := []string{"postings.decode_us_per_op", "postings.fragments_per_lookup"}
	switch sp.index {
	case core.IndexEmbedded:
		zero = append(zero, "postings.merge_us_per_lookup", "postings.entries_decoded_per_lookup")
	case core.IndexLazy:
		zero = nil
	}
	for _, n := range zero {
		check(v(n) == 0, true, "%s = %g, no postings on %s", n, v(n), sp.index)
	}
	return failed
}
