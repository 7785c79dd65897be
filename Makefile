GO ?= go

.PHONY: all build vet lint lint-json lint-race test race short bench bench-json bench-ingest bench-postings bench-compaction bench-compare bench-test verify experiments ci clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (DESIGN.md §5.4): iterator aliasing,
# lock-guard annotations, internal-key comparison, trace nil-safety,
# hot-path allocation and error hygiene. Pure stdlib; exits non-zero on
# any finding.
lint:
	$(GO) run ./cmd/lsmlint ./...

# Same findings as lint, one JSON object per line on stdout — for CI
# annotators and editor integrations.
lint-json:
	$(GO) run ./cmd/lsmlint -json ./...

# Race-detector smoke over the packages the concurrency analyzers
# (lockorder/goleak/atomicmix) reason about: the commit-queue and
# parallel sub-compaction stress tests in internal/lsm and the
# concurrent workload profiler in internal/explain. Dynamic confirmation
# that the statically blessed lock order holds under contention. The
# sstable test runs concurrent table builds and reads over the shared
# flate writer and block decoder pools.
lint-race:
	$(GO) test -race -run 'TestConcurrentBuildAndRead' ./internal/sstable/
	$(GO) test -race -run 'TestGroupCommit|TestCommit|TestParallelCompaction' ./internal/lsm/
	$(GO) test -race -run 'TestProfilerConcurrent|TestWorkloadSnapshot' ./internal/explain/

test: build
	$(GO) test ./...

# Race-detector pass over the engine packages; the concurrent write
# pipeline and parallel lookup tests are the main target. -short skips
# the long soaks so this stays tractable on small machines.
race:
	$(GO) test -race -short ./internal/...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem

# Run the restart-format block benchmarks (linear v1 vs restart-seek v2 at
# 4K/16K/64K blocks) and emit machine-readable results for the PR record.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkTableGet|BenchmarkSeekGE' -benchmem \
		./internal/sstable/ | $(GO) run ./cmd/benchjson > BENCH_pr2.json
	@echo wrote BENCH_pr2.json

# Run the group-commit ingest benchmarks (1/8 writers, inline vs grouped
# WAL sync under SyncGrouped) and emit machine-readable results for the
# PR record: ops/sec, fsyncs/op and commits per group.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestGroupCommit' -benchtime=2s \
		./internal/lsm/ | $(GO) run ./cmd/benchjson > BENCH_pr6.json
	@echo wrote BENCH_pr6.json

# Run the posting-list codec benchmarks (v1 JSON vs v2 binary): the
# isolated decode+merge at 10/100/1k-entry lists, the Eager RMW PUT at a
# fixed list size, and the Lazy LOOKUP top-10 end to end. Emits
# machine-readable results for the PR record.
bench-postings:
	{ $(GO) test -run '^$$' -bench 'BenchmarkPostingsMerge' -benchmem \
		./internal/postings/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEagerPut|BenchmarkLazyLookup' -benchmem \
		./internal/core/ ; } | $(GO) run ./cmd/benchjson > BENCH_pr7.json
	@echo wrote BENCH_pr7.json

# Run the sub-compaction engine benchmarks: full-compaction throughput at
# parallelism 1/2/4 over the primary-only and Lazy-index workloads. Emits
# machine-readable results for the PR record. Speedups at parallelism > 1
# require GOMAXPROCS >= parallelism (EXPERIMENTS.md).
bench-compaction:
	$(GO) test -run '^$$' -bench 'BenchmarkCompactionThroughput' -benchmem \
		./internal/core/ | $(GO) run ./cmd/benchjson > BENCH_pr10.json
	@echo wrote BENCH_pr10.json

# Benchmark regression gate: re-run the baseline's benchmarks and fail if
# any ops/sec dropped more than MAX_DROP percent against the recorded
# BASE JSON. Benchmarks missing from the base are reported and skipped
# (BenchmarkCompactionThroughput is new in BENCH_pr10.json and gates once
# a future BASE includes it).
BASE ?= BENCH_pr7.json
MAX_DROP ?= 25
bench-compare:
	{ $(GO) test -run '^$$' -bench 'BenchmarkPostingsMerge' -benchmem \
		./internal/postings/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEagerPut|BenchmarkLazyLookup' -benchmem \
		./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCompactionThroughput' -benchmem \
		./internal/core/ ; } | $(GO) run ./cmd/benchjson -compare $(BASE) -max-drop $(MAX_DROP)

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# ./... from the root does not reach its smoke and manifest-agreement
# tests.
bench-test:
	cd bench && $(GO) test ./...

# Fast correctness gate for the read-path packages: static checks plus a
# race-detector pass over the sstable block format and the lsm engine.
verify: vet lint build bench-test
	$(GO) test -race ./internal/sstable/... ./internal/lsm/...

# The full pre-merge gate: static checks (go vet + lsmlint), the
# benchmark module's own tests, a
# race-detector pass over every package, 10-second fuzz smokes of
# the sstable block round-trip, the posting-list codec and the attribute
# scanner against its json.Unmarshal oracle (all seeded from testdata/fuzz
# corpora), and the bench-compare regression smoke
# against the recorded BENCH_pr7.json baseline. The experiments package alone runs ~18
# minutes under the race detector on a small box, so the per-package
# timeout (a hang guard, not a budget) is raised above go test's 10m
# default.
ci: vet lint lint-race build bench-test
	$(GO) test -race -timeout 45m ./...
	$(GO) test -fuzz=FuzzBlockRoundTrip -fuzztime=10s ./internal/sstable/
	$(GO) test -fuzz=FuzzPostingsRoundTrip -fuzztime=10s ./internal/postings/
	$(GO) test -fuzz=FuzzExtractAttrs -fuzztime=10s ./internal/core/
	$(MAKE) bench-compare

# Regenerate the paper's evaluation at the default reduced scale.
experiments:
	$(GO) run ./cmd/lsmbench -exp all -scale 20000

clean:
	$(GO) clean ./...
