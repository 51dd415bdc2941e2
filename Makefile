GO ?= go

.PHONY: check fmt vet build test race benchsmoke gobench profile fuzz perfbench abbench

# The tier-1 gate plus gofmt, the race detector and a bench compile smoke —
# run before every commit; CI's check job runs it.
check: fmt vet build race benchsmoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

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

# The same-host A/B gate on the repo benchmark (cmd/abbench): BASE, any git
# revision, is checked out in a temporary worktree, and every BENCHMARK.json
# workload runs there and in this tree in 5 alternating pairs. A median
# worse than the larger of its BENCHMARK.json bound and the base's spread
# fails the gate. About 16 minutes on a 2-vCPU host. The binary is built
# rather than `go run` so its exit status (1 regressed, 2 usage) survives.
# Usage: make abbench BASE=<rev>
abbench:
	$(GO) build -o .bench_build/abbench ./cmd/abbench
	.bench_build/abbench $(BASE)

# CPU and allocation pprof profiles of root-package benchmarks (default: the
# n=96 counting run, the repo's end-to-end hot path). The test binary lands
# beside the profiles, for `go tool pprof`. See README "Profiling".
# Usage: make profile [BENCH=<regexp>] [PROFDIR=profiles]
BENCH ?= BenchmarkE2RoundsVsN/n=96
PROFDIR ?= profiles
profile:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -o $(PROFDIR)/anondyn.test \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof .

# The raw testing.B entries (one per reproduction experiment).
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ .
