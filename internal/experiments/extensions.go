package experiments

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/workload"
)

// CacheResult is one row of the block-cache experiment: a read-heavy run
// with and without the LRU block cache (the paper runs cache-less and
// discusses OS buffer-cache effects in §5.2.2; this experiment makes the
// effect measurable in-process).
type CacheResult struct {
	Kind        core.IndexKind
	CacheBytes  int64
	DiskReads   int64 // block reads that went to disk
	CacheHits   int64
	HitRate     float64
	MeanOpMicro float64
}

// CacheEffects runs the read-heavy Mixed workload against the Lazy index
// with the block cache off and on, reporting disk-read savings and the
// compaction-invalidation behaviour (hit rate < 100% even for a hot set,
// because compactions retire cached tables).
func CacheEffects(c Config) ([]CacheResult, error) {
	c = c.withDefaults()
	nOps := c.Scale
	c.printf("Block cache effects — read-heavy mix, %d ops, Lazy index\n", nOps)
	c.printf("%-12s %12s %12s %10s %12s\n", "cache", "disk-reads", "cache-hits", "hit-rate", "mean-op(us)")

	var out []CacheResult
	for _, cacheBytes := range []int64{0, 4 << 20} {
		opts := mixedOptions(core.IndexLazy)
		opts.BlockCacheBytes = cacheBytes
		// Tighter flush threshold so even reduced-scale runs hit disk and
		// exercise the cache.
		opts.MemTableBytes = 64 << 10
		opts.BaseLevelBytes = 256 << 10
		db, err := c.open(filepath.Join(c.Dir, fmt.Sprintf("cache-%d", cacheBytes)), opts)
		if err != nil {
			return nil, err
		}
		m := workload.NewMixed(workload.Config{Seed: c.Seed, Tweets: nOps}, workload.ReadHeavy, nOps, 10)
		var total time.Duration
		done := 0
		for {
			op, ok := m.Next()
			if !ok {
				break
			}
			d, err := runOp(db, op)
			if err != nil {
				_ = db.Close()
				return nil, err
			}
			total += d
			done++
		}
		s := db.Stats()
		r := CacheResult{
			Kind:        core.IndexLazy,
			CacheBytes:  cacheBytes,
			DiskReads:   s.Primary.BlockReads + s.Index.BlockReads,
			CacheHits:   s.Primary.CacheHits + s.Index.CacheHits,
			MeanOpMicro: float64(total.Microseconds()) / float64(done),
		}
		if lookups := r.CacheHits + s.Primary.CacheMisses + s.Index.CacheMisses; lookups > 0 {
			r.HitRate = float64(r.CacheHits) / float64(lookups)
		}
		out = append(out, r)
		label := "off"
		if cacheBytes > 0 {
			label = fmt.Sprintf("%dMB", cacheBytes>>20)
		}
		c.printf("%-12s %12d %12d %9.1f%% %12.1f\n", label, r.DiskReads, r.CacheHits, r.HitRate*100, r.MeanOpMicro)
		_ = db.Close()
	}
	c.printf("\n")
	return out, nil
}

// ConcurrencyResult is one row of the concurrent-readers experiment
// (the analogue of the paper's Appendix C concurrency discussion):
// aggregate LOOKUP throughput as reader goroutines scale, with a single
// writer streaming in the background.
type ConcurrencyResult struct {
	Readers        int
	LookupsPerSec  float64
	MeanLookupUs   float64
	WriterOpsTotal int
}

// ConcurrentReaders measures Lazy-index LOOKUP throughput with 1..N
// reader goroutines running against a live single-writer ingest.
func ConcurrentReaders(c Config, readerCounts []int) ([]ConcurrencyResult, error) {
	c = c.withDefaults()
	if len(readerCounts) == 0 {
		readerCounts = []int{1, 2, 4, 8}
	}
	tweets := c.dataset()
	c.printf("Concurrent readers — Lazy index, %d preloaded tweets, live writer\n", len(tweets))
	c.printf("%8s %14s %14s %12s\n", "readers", "lookups/sec", "mean(us)", "writer-ops")

	var out []ConcurrencyResult
	for _, n := range readerCounts {
		db, err := c.open(filepath.Join(c.Dir, fmt.Sprintf("conc-%d", n)), mixedOptions(core.IndexLazy))
		if err != nil {
			return nil, err
		}
		for _, tw := range tweets {
			if err := db.Put(tw.ID, tw.Doc()); err != nil {
				_ = db.Close()
				return nil, err
			}
		}

		const duration = 300 * time.Millisecond
		stop := make(chan struct{})
		var wg sync.WaitGroup

		// One background writer continues the stream.
		writerOps := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := workload.NewGenerator(workload.Config{Tweets: 1 << 30, Users: 10000, Seed: c.Seed + 999})
			for {
				select {
				case <-stop:
					return
				default:
				}
				tw, _ := g.Next()
				tw.ID = fmt.Sprintf("live%09d", writerOps)
				if err := db.Put(tw.ID, tw.Doc()); err != nil {
					return
				}
				writerOps++
			}
		}()

		// N readers issue top-10 LOOKUPs.
		hist := metrics.NewHistogram(0)
		var lookups int64
		var mu sync.Mutex
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				q := workload.NewStaticQueries(tweets, c.Seed+int64(r))
				local := 0
				for {
					select {
					case <-stop:
						mu.Lock()
						lookups += int64(local)
						mu.Unlock()
						return
					default:
					}
					op := q.Lookup(workload.AttrUser, 10)
					start := time.Now()
					if _, err := db.Lookup(op.Attr, op.Lo, op.K); err != nil {
						return
					}
					hist.Observe(float64(time.Since(start).Microseconds()))
					local++
				}
			}(r)
		}
		time.Sleep(duration)
		close(stop)
		wg.Wait()

		r := ConcurrencyResult{
			Readers:        n,
			LookupsPerSec:  float64(lookups) / duration.Seconds(),
			MeanLookupUs:   hist.Mean(),
			WriterOpsTotal: writerOps,
		}
		out = append(out, r)
		c.printf("%8d %14.0f %14.1f %12d\n", r.Readers, r.LookupsPerSec, r.MeanLookupUs, r.WriterOpsTotal)
		_ = db.Close()
	}
	c.printf("\n")
	return out, nil
}

// YCSBResult reports one (workload, index) cell of the YCSB extension
// run: mean op latency and throughput.
type YCSBResult struct {
	Workload  workload.YCSBWorkload
	Kind      core.IndexKind
	MeanOpUs  float64
	OpsPerSec float64
}

// YCSBBench preloads c.Scale records and drives the six YCSB presets
// against the Embedded and Lazy variants — the standard cloud-serving
// mixes the paper contrasts its generator with (§5.1: YCSB offers no
// control over secondary-query ratios, so no secondary lookups appear
// here; this measures the primary-path cost of carrying each index).
func YCSBBench(c Config, presets []workload.YCSBWorkload) ([]YCSBResult, error) {
	c = c.withDefaults()
	if len(presets) == 0 {
		presets = []workload.YCSBWorkload{
			workload.YCSBA, workload.YCSBB, workload.YCSBC,
			workload.YCSBD, workload.YCSBE, workload.YCSBF,
		}
	}
	records := c.Scale
	nOps := c.Scale
	c.printf("YCSB presets — %d preloaded records, %d ops per cell\n", records, nOps)
	c.printf("%-9s %-10s %12s %14s\n", "workload", "index", "mean(us)", "ops/sec")

	var out []YCSBResult
	for _, kind := range []core.IndexKind{core.IndexEmbedded, core.IndexLazy} {
		for _, preset := range presets {
			opts := mixedOptions(kind)
			opts.Attrs = []string{"field0"}
			db, err := c.open(filepath.Join(c.Dir, fmt.Sprintf("ycsb-%c-%s", preset, kind)), opts)
			if err != nil {
				return nil, err
			}
			g, err := workload.NewYCSB(preset, records, nOps, c.Seed)
			if err != nil {
				_ = db.Close()
				return nil, err
			}
			for i := 0; i < records; i++ {
				if err := db.Put(workload.YCSBKey(i), g.LoadValue(i)); err != nil {
					_ = db.Close()
					return nil, err
				}
			}
			start := time.Now()
			done := 0
			for {
				op, ok := g.Next()
				if !ok {
					break
				}
				done++
				var err error
				switch op.Kind {
				case workload.YCSBInsert, workload.YCSBUpdate:
					err = db.Put(op.Key, op.Value)
				case workload.YCSBRead:
					_, _, err = db.Get(op.Key)
				case workload.YCSBScan:
					n := 0
					err = db.Scan(op.Key, "", func(string, []byte) bool {
						n++
						return n < op.ScanLen
					})
				case workload.YCSBReadModifyWrite:
					if _, _, err = db.Get(op.Key); err == nil {
						err = db.Put(op.Key, op.Value)
					}
				}
				if err != nil {
					_ = db.Close()
					return nil, err
				}
			}
			elapsed := time.Since(start)
			r := YCSBResult{
				Workload:  preset,
				Kind:      kind,
				MeanOpUs:  float64(elapsed.Microseconds()) / float64(done),
				OpsPerSec: float64(done) / elapsed.Seconds(),
			}
			out = append(out, r)
			c.printf("%-9c %s %12.1f %14.0f\n", preset, kindLabel(kind), r.MeanOpUs, r.OpsPerSec)
			_ = db.Close()
		}
	}
	c.printf("\n")
	return out, nil
}
