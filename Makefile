GO ?= go

.PHONY: all build vet lint lint-race test race short bench bench-test verify experiments ci clean

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
# and flush/compaction pipeline tests in internal/lsm (the background
# runner, a failed writer canceling its merge goroutine, and writer-run
# jobs racing Flush and CompactRange in deterministic mode), concurrent core
# writers (every write takes the commit queue) and the concurrent
# workload profiler in internal/explain. Dynamic confirmation that the
# statically blessed lock order holds under contention. It is also the
# goroutine-leak check: the background tests bound Close (closeWithin),
# so a runner that never exits fails them with a goroutine dump. The
# sstable test runs concurrent table builds and reads over the shared
# deflater and block decoder pools.
lint-race:
	$(GO) test -race -run 'TestConcurrentBuildAndRead' ./internal/sstable/
	$(GO) test -race -run 'TestGroupCommit|TestCommit|TestUncontendedCommit|TestCompactionWriterFailureCancels|TestBackground|TestDeterministicConcurrentDrains' ./internal/lsm/
	$(GO) test -race -run 'TestGroupCommitConcurrentCore' ./internal/core/
	$(GO) test -race -run 'TestProfilerConcurrent|TestWorkloadSnapshot' ./internal/explain/

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
# race-detector pass over the sstable block format and the lsm engine.
verify: vet lint build bench-test
	$(GO) test -race ./internal/sstable/... ./internal/lsm/...

# The full pre-merge gate: static checks (go vet + lsmlint), the
# benchmark module's own tests, a
# race-detector pass over every package, and 10-second fuzz smokes of
# the sstable block round-trip, the block deflater against
# compress/flate's BestSpeed writer, the block inflater against
# compress/flate's reader, the posting-list codec, the attribute scanner
# against its json.Unmarshal oracle and the newest-first candidate stream
# against decode-all + stable sort (all seeded from testdata/fuzz
# corpora). The experiments package alone runs ~18
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

# Regenerate the paper's evaluation at the default reduced scale.
experiments:
	$(GO) run ./cmd/lsmbench -exp all -scale 20000

clean:
	$(GO) clean ./...
