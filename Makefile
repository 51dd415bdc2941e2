GO ?= go

.PHONY: check vet build test race bench benchsmoke benchcmp gobench profile fuzz perfbench

# The tier-1 gate plus the race detector and a bench compile smoke — run
# before every commit.
check: vet build race benchsmoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Compile-and-run-once smoke over every benchmark in the repo, so bench
# code cannot rot between perf PRs.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Native fuzzing smoke: each target gets FUZZTIME of coverage-guided
# input generation on top of its checked-in testdata/fuzz corpus (which
# alone is replayed by plain `go test`). New crashers are written under
# testdata/fuzz/<Target>/ — check them in as regressions. FuzzStoreSegment
# does file I/O on every input, so its minimization is capped by count,
# not time, to leave most of FUZZTIME for exploring.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzMessageCodec$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzRandomConnectedSchedule$$' -fuzztime=$(FUZZTIME) ./internal/dynnet
	$(GO) test -run='^$$' -fuzz='^FuzzFaultPlan$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzSolverArithmetic$$' -fuzztime=$(FUZZTIME) ./internal/historytree
	$(GO) test -run='^$$' -fuzz='^FuzzBatchedRefine$$' -fuzztime=$(FUZZTIME) ./internal/historytree
	$(GO) test -run='^$$' -fuzz='^FuzzProtocolEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/linear
	$(GO) test -run='^$$' -fuzz='^FuzzJobSpec$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzStoreSegment$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/store

# The repo benchmark (BENCHMARK.json, perfbench/): a smoke run of every
# workload with its answer checks, then the benchmark module's own tests
# (decorator parity, metric names and units against BENCHMARK.json).
# The full measured run is `bash perfbench/run.sh`; see perfbench/README.md.
perfbench:
	bash perfbench/run.sh --smoke
	cd perfbench && $(GO) test ./...

# Run the benchmark-regression suite and record BENCH_PR9.json (see
# EXPERIMENTS.md, "Perf appendix").
bench:
	$(GO) run ./cmd/benchreport -out BENCH_PR9.json

# Compare two BENCH_*.json reports; fails on >20% ns/op regression
# (override per entry with -tol NAME=FRAC through EXTRA).
# Usage: make benchcmp BASE=BENCH_PR8.json [NEW=BENCH_PR9.json]
BASE ?= BENCH_PR8.json
NEW ?= BENCH_PR9.json
benchcmp:
	$(GO) run ./cmd/benchreport -compare -old $(BASE) -new $(NEW)

# Capture CPU + allocation pprof profiles of one suite entry (default:
# the E2 counting run, the repo's end-to-end hot path — its profile now
# lands in the batched refinement pass and the masked schedule
# generator; see DESIGN.md decision 15). See README "Profiling" for how
# to read the artifacts.
# Usage: make profile [BENCH=E2Count] [PROFDIR=profiles]
BENCH ?= E2Count
PROFDIR ?= profiles
profile:
	$(GO) run ./cmd/benchreport -bench '$(BENCH)' \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof

# The raw testing.B entries (one per reproduction experiment).
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ .
