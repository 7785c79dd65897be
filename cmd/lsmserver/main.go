// Command lsmserver serves a LevelDB++ database over HTTP/JSON.
//
// Usage:
//
//	lsmserver -db /var/lib/tweets -index lazy -attrs UserID,CreationTime -addr :8080
//
// Endpoints (see internal/server):
//
//	PUT/GET/DELETE /doc/{key}
//	GET  /lookup?attr=&value=&k=
//	GET  /rangelookup?attr=&lo=&hi=&k=
//	GET  /explain/lookup  /explain/rangelookup  /explain/get
//	GET  /advisor
//	GET  /scan?lo=&hi=&limit=
//	POST /batch
//	GET  /stats   POST /flush   GET /check
//	GET  /healthz   GET /metrics   GET /events   GET /trace/slow
//	GET  /debug/pprof/*   (only with -pprof)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/server"
	"leveldbpp/internal/wal"
)

func main() {
	var (
		dir       = flag.String("db", "", "database directory (required)")
		index     = flag.String("index", "lazy", "index kind: none|embedded|eager|lazy|composite")
		attrs     = flag.String("attrs", "UserID,CreationTime", "comma-separated indexed attributes")
		addr      = flag.String("addr", ":8080", "listen address")
		cache     = flag.Int64("cache-mb", 0, "block cache size in MiB (0 = off, the paper's config)")
		metricsOn = flag.Bool("metrics", true, "expose Prometheus text format at GET /metrics")
		pprofOn   = flag.Bool("pprof", false, "expose Go profiling at /debug/pprof/")
		traceRate = flag.Float64("trace-sample", 0, "fraction of operations to trace (0 disables, 1 traces all)")
		eventsOut = flag.String("events-jsonl", "", "append lifecycle events as JSON lines to this file")
		syncMode  = flag.String("sync-mode", "off", "WAL durability: off|always|grouped (grouped = one fsync per commit group)")
		advisorIv = flag.Duration("advisor-check", 0, "re-run the online index advisor at this interval (0 disables); flips land in the event log")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "lsmserver: -db is required")
		os.Exit(1)
	}
	kind, err := parseKind(*index)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(1)
	}
	sync, err := wal.ParseSyncMode(*syncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(1)
	}

	// The JSONL sink (if any) attaches as a secondary event sink behind the
	// DB's in-memory ring; it is flushed and closed on shutdown so the tail
	// of the event stream survives a SIGTERM.
	var jsonl *metrics.JSONLSink
	var events metrics.EventSink
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmserver:", err)
			os.Exit(1)
		}
		jsonl = metrics.NewJSONLSink(f)
		events = jsonl
	}

	db, err := core.Open(*dir, core.Options{
		Index:           kind,
		Attrs:           strings.Split(*attrs, ","),
		BlockCacheBytes: *cache << 20,
		TraceSampleRate: *traceRate,
		Events:          events,
		SyncMode:        sync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(1)
	}

	handler := server.NewWith(db, server.Config{Metrics: *metricsOn, Pprof: *pprofOn})
	if *advisorIv > 0 {
		go func() {
			t := time.NewTicker(*advisorIv)
			defer t.Stop()
			for range t.C {
				res := handler.AdvisorMonitor().Check()
				if res.Sufficient && !res.Match {
					log.Printf("advisor: configured=%s recommended=%s", res.Configured, res.Recommended)
				}
			}
		}()
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("shutting down")
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()

	log.Printf("lsmserver: %s index on %s, serving %s (metrics=%v pprof=%v trace-sample=%g)",
		kind, *attrs, *addr, *metricsOn, *pprofOn, *traceRate)
	err = srv.ListenAndServe()
	if closeErr := db.Close(); closeErr != nil {
		log.Println("close:", closeErr)
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			log.Println("events-jsonl:", err)
		}
	}
	if err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

func parseKind(s string) (core.IndexKind, error) {
	switch strings.ToLower(s) {
	case "none":
		return core.IndexNone, nil
	case "embedded":
		return core.IndexEmbedded, nil
	case "eager":
		return core.IndexEager, nil
	case "lazy":
		return core.IndexLazy, nil
	case "composite":
		return core.IndexComposite, nil
	default:
		return 0, fmt.Errorf("unknown index kind %q", s)
	}
}
