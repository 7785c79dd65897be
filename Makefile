GO ?= go

.PHONY: all build vet lint lint-race test race short bench bench-test verify experiments ci loc clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (DESIGN.md §5.4): iterator aliasing,
# lock-guard annotations, internal-key comparison, hot-path allocation,
# error hygiene and the blessed lock order. Pure stdlib; exits non-zero
# on any finding.
lint:
	$(GO) run ./cmd/lsmlint ./...

# Race-detector smoke over the packages the lockorder and lockguard
# analyzers reason about: the commit-queue, compaction merge stream
# and flush/compaction pipeline tests in internal/lsm (TestBackground*:
# concurrent writers running flush and compaction jobs beside readers,
# CompactRange, Checkpoint, Close and a parked flush job; a failed
# compaction writer canceling its merge goroutine, which only compactions
# start (a flush merges on its caller); writer-run jobs racing Flush and two
# CompactRange callers; and the sorted batch read behind chunked
# validation over a parked frozen MemTable), concurrent core writers
# (every write takes the commit queue), LOOKUP and RANGELOOKUP readers
# validating chunks of candidates while a writer flushes and compacts
# under them, the concurrent workload profiler in internal/explain, the
# lock-free /metrics bucket histogram taking observations while it is
# rendered, and /metrics and /stats scrapes reading the per-table
# counters while concurrent writers commit, flush and compact. Dynamic
# confirmation that the statically blessed lock order holds under
# contention. It is also the goroutine-leak check: the TestBackground*
# tests bound Close (closeWithin), so a job that never ends fails them
# with a goroutine dump, and the drain tests fail if a merge goroutine
# outlives its job. The sstable test runs concurrent table builds and
# reads over the shared deflater and block decoder pools.
lint-race:
	$(GO) test -race -run 'TestConcurrentBuildAndRead' ./internal/sstable/
	$(GO) test -race -run 'TestGroupCommit|TestCommit|TestUncontendedCommit|TestCompactionWriterFailureCancels|TestBackground|TestDeterministicConcurrentDrains|TestGetSortedMatchesGet' ./internal/lsm/
	$(GO) test -race -run 'TestGroupCommitConcurrentCore|TestConcurrentChunkedValidation' ./internal/core/
	$(GO) test -race -run 'TestProfilerConcurrent|TestWorkloadSnapshot' ./internal/explain/
	$(GO) test -race -run 'TestHistogramRaceMixedReadersWriters|TestBucketCountingCumulative|TestBucketHistogramObserveAllocs' ./internal/metrics/
	$(GO) test -race -run 'TestScrapeDuringBackgroundWrites' ./internal/server/

test: build
	$(GO) test ./...

# Race-detector pass over the engine packages; the concurrent write
# pipeline tests are the main target. -short skips
# the long soaks so this stays tractable on small machines.
race:
	$(GO) test -race -short ./internal/...

short:
	$(GO) test -short ./...

# The end-to-end benchmark (bench/README.md): four closed-loop workloads
# through core.DB and lsmserver. Pass e.g. ARGS="--workload wh-lazy
# --seed 1 --seconds 10 --trace 1"; the last stdout line is the JSON
# result.
bench:
	bash bench/run.sh $(ARGS)

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# ./... from the root does not reach its smoke and manifest-agreement
# tests.
bench-test:
	cd bench && $(GO) test ./...

# Fast correctness gate for the read-path packages: static checks plus a
# race-detector pass over the sstable block format, the posting-list
# codec and the lsm engine.
verify: vet lint build bench-test
	$(GO) test -race ./internal/sstable/... ./internal/postings/... ./internal/lsm/...

# The full pre-merge gate: static checks (go vet + lsmlint), the
# benchmark module's own tests, a
# race-detector pass over every package, and 10-second fuzz smokes of
# the sstable block round-trip, the block deflater against
# compress/flate's BestSpeed writer, the block inflater against
# compress/flate's reader, the posting-list codec, the attribute scanner
# against its json.Unmarshal oracle, the newest-first candidate stream
# against decode-all + stable sort (and its rejection of out-of-order
# fragments), Composite's seq-bounded candidate
# stream against a merged scan of the whole index table, and Embedded's
# and the posting kinds' (Lazy, Eager) seq-bounded top-K reads against a
# model, the latter also from a database written before index records
# carried the primary's seq (all seeded from testdata/fuzz corpora). The
# posting kinds' seeds whose Lazy index MemTable holds many blind
# versions of a key, with no flush or a reopen (WAL replay) before it,
# also run by name, so a filter typo cannot skip them. The experiments package alone runs ~18
# minutes under the race detector on a small box, so the per-package
# timeout (a hang guard, not a budget) is raised above go test's 10m
# default. Performance is gated by the end-to-end benchmark (make bench),
# not here.
ci: vet lint lint-race build bench-test
	$(GO) test -race -timeout 45m ./...
	$(GO) test -fuzz=FuzzBlockRoundTrip -fuzztime=10s ./internal/sstable/
	$(GO) test -fuzz=FuzzDeflate -fuzztime=10s -fuzzminimizetime=1s ./internal/sstable/
	$(GO) test -fuzz=FuzzInflate -fuzztime=10s -fuzzminimizetime=1s ./internal/sstable/
	$(GO) test -fuzz=FuzzPostingsRoundTrip -fuzztime=10s ./internal/postings/
	$(GO) test -fuzz=FuzzExtractAttrs -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzNewestFirstStream -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzCompositeStream -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzEmbeddedTopK -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzPostingRangeTopK -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -count=1 -v -run 'FuzzPostingRangeTopK/seed-(versions|reopen|fixture-versions)-' ./internal/core/ | grep -c -- '--- PASS: FuzzPostingRangeTopK/seed-' | grep -qx 5

# Regenerate the paper's evaluation at the default reduced scale.
experiments:
	$(GO) run ./cmd/lsmbench -exp all -scale 20000

# Non-test Go line count, excluding the benchmark module, test fixtures
# and the transient files a running bench/run.sh build leaves in
# .bench_build: the size measure ROADMAP.md tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
