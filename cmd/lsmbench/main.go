// Command lsmbench regenerates the paper's tables and figures at a chosen
// scale and prints the measured rows.
//
// Usage:
//
//	lsmbench -exp fig8a -scale 50000
//	lsmbench -exp all   -scale 20000 -queries 100
//
// Experiments: fig2 fig7 fig8a fig8b fig8c fig9 fig10 fig11 fig12 fig13
// fig14 fig15 table3 table5 c1 c2 ablation cache concurrency explain ycsb
// all. Figures 12–15 share the
// Mixed-workload driver: fig12 runs all three mixes; fig13/14/15 run the
// write-, read- and update-heavy mixes individually.
package main

import (
	"flag"
	"fmt"
	"os"

	"leveldbpp/internal/experiments"
	"leveldbpp/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (fig2,fig7,fig8a,...,table5,c1,c2,ablation,cache,concurrency,explain,ycsb,all)")
		scale   = flag.Int("scale", 20000, "number of tweets to ingest")
		queries = flag.Int("queries", 100, "queries per measurement cell")
		seed    = flag.Int64("seed", 2018, "dataset RNG seed")
		dir     = flag.String("dir", "", "scratch directory (default: temp)")
		csvDir  = flag.String("csv", "", "also write results as CSV files into this directory")
		trace   = flag.Bool("trace", false, "trace every operation and print a phase-time breakdown per experiment")
	)
	flag.Parse()

	cfg := experiments.Config{
		Scale:   *scale,
		Queries: *queries,
		Seed:    *seed,
		Dir:     *dir,
		Out:     os.Stdout,
	}
	if *trace {
		cfg.Tracer = metrics.NewTracer(1, metrics.DefaultTraceRing)
	}
	if cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "lsmbench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		cfg.Dir = tmp
	}

	// csvOut writes rows when -csv is set.
	csvOut := func(name string, header []string, rows [][]string) error {
		if *csvDir == "" {
			return nil
		}
		return experiments.WriteCSV(*csvDir, name, header, rows)
	}

	runners := map[string]func() error{
		"fig2": func() error { experiments.Fig2Advisor(cfg); return nil },
		"fig7": func() error {
			r, err := experiments.Fig7DatasetZipf(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.Fig7CSV(r)
			return csvOut("fig7", h, rows)
		},
		"fig8a": func() error {
			rs, err := experiments.Fig8aDatabaseSize(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.Fig8aCSV(rs)
			return csvOut("fig8a", h, rows)
		},
		"fig8b": func() error {
			rs, err := experiments.Fig8bPutPerformance(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.Fig8bCSV(rs)
			return csvOut("fig8b", h, rows)
		},
		"fig8c": func() error { _, err := experiments.Fig8cGetPerformance(cfg); return err },
		"fig9": func() error {
			rs, err := experiments.Fig9PutOverTime(cfg, 10)
			if err != nil {
				return err
			}
			h, rows := experiments.Fig9CSV(rs)
			return csvOut("fig9", h, rows)
		},
		"fig10": func() error {
			rs, err := experiments.Fig10UserIDQueries(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.QueryCSV(rs)
			return csvOut("fig10", h, rows)
		},
		"fig11": func() error {
			rs, err := experiments.Fig11CreationTimeQueries(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.QueryCSV(rs)
			return csvOut("fig11", h, rows)
		},
		"fig12": func() error {
			names := []string{"fig13-write-heavy", "fig14-read-heavy", "fig15-update-heavy"}
			fns := []func(experiments.Config) ([]experiments.MixedResult, error){
				experiments.Fig12WriteHeavy, experiments.Fig12ReadHeavy, experiments.Fig12UpdateHeavy,
			}
			for i, f := range fns {
				rs, err := f(cfg)
				if err != nil {
					return err
				}
				h, rows := experiments.MixedCSV(rs)
				if err := csvOut(names[i], h, rows); err != nil {
					return err
				}
			}
			return nil
		},
		"fig13":  func() error { _, err := experiments.Fig12WriteHeavy(cfg); return err },
		"fig14":  func() error { _, err := experiments.Fig12ReadHeavy(cfg); return err },
		"fig15":  func() error { _, err := experiments.Fig12UpdateHeavy(cfg); return err },
		"table3": func() error { _, _, err := experiments.Table3Embedded(cfg); return err },
		"table5": func() error { _, _, err := experiments.Table5StandAlone(cfg); return err },
		"c1": func() error {
			rs, err := experiments.AppendixC1BloomBits(cfg, nil)
			if err != nil {
				return err
			}
			h, rows := experiments.C1CSV(rs)
			return csvOut("c1", h, rows)
		},
		"c2": func() error { _, err := experiments.AppendixC2Compression(cfg); return err },
		"ablation": func() error {
			_, err := experiments.EmbeddedAblations(cfg)
			return err
		},
		"cache": func() error { _, err := experiments.CacheEffects(cfg); return err },
		"ycsb":  func() error { _, err := experiments.YCSBBench(cfg, nil); return err },
		"concurrency": func() error {
			_, err := experiments.ConcurrentReaders(cfg, nil)
			return err
		},
		"explain": func() error {
			rs, err := experiments.ExplainValidation(cfg)
			if err != nil {
				return err
			}
			h, rows := experiments.ExplainCSV(rs)
			return csvOut("explain", h, rows)
		},
	}

	order := []string{"fig7", "fig2", "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11",
		"fig12", "table3", "table5", "c1", "c2", "ablation", "cache", "concurrency", "explain", "ycsb"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("=== %s ===\n", name)
			if err := runners[name](); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			if cfg.Tracer != nil {
				experiments.PrintBreakdown(os.Stdout, cfg.Tracer)
			}
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q; known: %v and all", *exp, order))
	}
	if err := run(); err != nil {
		fatal(err)
	}
	if cfg.Tracer != nil {
		experiments.PrintBreakdown(os.Stdout, cfg.Tracer)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmbench:", err)
	os.Exit(1)
}
