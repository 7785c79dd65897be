// Command lsmserver serves a LevelDB++ database over HTTP/JSON.
//
// Usage:
//
//	lsmserver -db /var/lib/tweets [-index lazy -attrs UserID,CreationTime] -addr :8080
//
// -index and -attrs only matter for a new database (lsmdb has the rules).
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
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"leveldbpp/internal/cli"
	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/server"
	"leveldbpp/internal/wal"
)

func main() {
	log.SetPrefix("lsmserver: ")
	open := cli.DBFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cache     = flag.Int64("cache-mb", 0, "block cache size in MiB of each table, the primary and every index table (0 = off, the paper's config)")
		metricsOn = flag.Bool("metrics", true, "expose Prometheus text format at GET /metrics")
		pprofOn   = flag.Bool("pprof", false, "expose Go profiling at /debug/pprof/")
		traceRate = flag.Float64("trace-sample", 0, "fraction of operations to trace (0 disables, 1 traces all)")
		eventsOut = flag.String("events-jsonl", "", "append lifecycle events as JSON lines to this file")
		syncMode  = flag.String("sync-mode", "off", "WAL durability: off|grouped (grouped = one fsync per commit group; always is another spelling of it)")
		advisorIv = flag.Duration("advisor-check", 0, "re-run the online index advisor at this interval (0 disables); flips land in the event log")
	)
	flag.Parse()
	sync, err := wal.ParseSyncMode(*syncMode)
	if err != nil {
		log.Fatal(err)
	}

	// The JSONL sink (if any) attaches as a secondary event sink behind the
	// DB's in-memory ring; it is flushed and closed on shutdown so the tail
	// of the event stream survives a SIGTERM.
	var jsonl *metrics.JSONLSink
	var events metrics.EventSink
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		jsonl = metrics.NewJSONLSink(f)
		events = jsonl
	}

	db, err := open(core.Options{
		BlockCacheBytes: *cache << 20,
		Tracer:          metrics.NewTracer(*traceRate, 0),
		Events:          events,
		SyncMode:        sync,
	})
	if err != nil {
		log.Fatal(err)
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

	log.Printf("%s index on %s, serving %s (metrics=%v pprof=%v trace-sample=%g)",
		db.Kind(), strings.Join(db.Attrs(), ","), *addr, *metricsOn, *pprofOn, *traceRate)
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
