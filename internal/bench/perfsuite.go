package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// NamedBench couples a benchmark-regression suite entry with its body.
type NamedBench struct {
	Name  string
	Bench func(b *testing.B)
}

// PerfSuite returns the benchmark-regression suite behind `make bench`:
// the solver-heavy experiment runs (E2 at its largest n, E4, E17's linear
// backend at n=10) plus the solver and engine microbenchmarks, each in an
// incremental and — where the distinction exists — a from-scratch variant
// so a single run yields the speedup ratio. The names match the testing.B
// entries of the same code paths (root bench_test.go, internal/historytree,
// internal/engine).
func PerfSuite() []NamedBench {
	suite := []NamedBench{
		// SolverFromScratch runs the modular backend (the default since
		// PR 7); SolverBig keeps the big.Int witness measured so every
		// report shows the modular-vs-exact ratio (PR 4's SolverFromScratch
		// was the big.Int path: 63.2 ms/op, 945k allocs/op).
		{Name: "SolverFromScratch/n=16", Bench: solverBench(16, false, historytree.ArithModular)},
		{Name: "SolverFromScratch/n=24", Bench: solverBench(24, false, historytree.ArithModular)},
		{Name: "SolverBig/n=16", Bench: solverBench(16, false, historytree.ArithBig)},
		{Name: "SolverIncremental/n=16", Bench: solverBench(16, true, historytree.ArithModular)},
		{Name: "E2Count/n=12", Bench: e2Bench(12)},
		// The n=24 and n=48 points record how the history-tree/VHT layer
		// scales, not just the E2 sweep's largest published point; n=48 is
		// the scaling point the modular solver makes affordable.
		{Name: "E2Count/n=24", Bench: e2Bench(24)},
		{Name: "E2Count/n=48", Bench: e2Bench(48)},
		// n=96 is the routine-scale target of the PR 8 scheduler/compaction
		// work: one full counting run at double the previous largest point,
		// kept in the suite so its cost curve is tracked like any other.
		{Name: "E2Count/n=96", Bench: e2Bench(96)},
		// The fault sweep records what in-model faults cost: the spike
		// drives the error/reset machinery (more rounds, same answer), the
		// storm multiplies delivered links (more per-round work). They
		// regression-guard the faults.Schedule wrapper's own overhead too.
		{Name: "E2CountFaultSpike/n=12", Bench: e2FaultBench(12, "spike:8:0")},
		{Name: "E2CountFaultStorm/n=12", Bench: e2FaultBench(12, "storm:1:0:3")},
		{Name: "E2SolverReplayFromScratch/n=12", Bench: e2SolverReplayBench(12, false)},
		{Name: "E2SolverReplayIncremental/n=12", Bench: e2SolverReplayBench(12, true)},
		{Name: "E4RedEdges/n=10", Bench: e4Bench(10)},
		{Name: "E6NonCongested/n=10", Bench: e6Bench(10)},
		{Name: "EngineSchedulerSequential/n=32", Bench: engineBench(32, engine.SchedulerSequential)},
		{Name: "EngineSchedulerParallel/n=32", Bench: engineBench(32, engine.SchedulerParallel)},
		// n=192 is the PR 9 target: batched refinement plus cross-process
		// structural sharing make one full counting run at this size a
		// routine suite entry. CompactVHT keeps its resident set bounded,
		// as any run this large would in practice. It runs last: its
		// 146 MB/op heap reshapes the GC pacing of whatever follows it in
		// the same process, which showed up as a phantom ~20% regression
		// on the fault entries when it sat mid-suite.
		{Name: "E2Count/n=192", Bench: e2CompactBench(192)},
	}
	return suite
}

// RunPerfSuite executes the suite via testing.Benchmark and collects the
// measurements. progress, if non-nil, is called before each entry.
// RunPerfSuiteOpts is the filtered/profiled variant.
func RunPerfSuite(progress func(name string)) (PerfReport, error) {
	return runEntries(PerfSuite(), progress)
}

func runEntries(suite []NamedBench, progress func(name string)) (PerfReport, error) {
	report := make(PerfReport)
	for _, nb := range suite {
		if progress != nil {
			progress(nb.Name)
		}
		r := testing.Benchmark(nb.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("bench: %s failed", nb.Name)
		}
		report[nb.Name] = PerfEntry{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		}
	}
	return report, nil
}

// solverBench replays the protocol's access pattern — re-solving after
// every completed level of a prebuilt history tree — through either the
// from-scratch solve or the persistent incremental Solver, under the
// given arithmetic backend.
func solverBench(n int, incremental bool, arith historytree.Arith) func(b *testing.B) {
	return func(b *testing.B) {
		s := dynnet.NewRandomConnected(n, 0.3, 1)
		inputs := make([]historytree.Input, n)
		inputs[0].Leader = true
		run, err := historytree.Build(s, inputs, 3*n)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver := historytree.NewSolverWith(arith)
			for l := 0; l <= 3*n; l++ {
				var res historytree.CountResult
				var err error
				if incremental {
					res, err = solver.CountAt(run.Tree, l)
				} else {
					res, err = historytree.CountWith(run.Tree, l, arith)
				}
				if err != nil {
					b.Fatal(err)
				}
				if res.Known && res.N != n {
					b.Fatalf("wrong count at level %d: %+v", l, res)
				}
			}
		}
	}
}

// e2Bench is one full counting run at E2's largest sweep point.
func e2Bench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		s := dynnet.NewRandomConnected(n, 0.3, 1)
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.N != n {
				b.Fatalf("counted %d, want %d", res.N, n)
			}
		}
	}
}

// e2CompactBench is e2Bench with CompactVHT on: the configuration large-n
// runs use in practice, and the one the PR 9 suite entries track.
func e2CompactBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		s := dynnet.NewRandomConnected(n, 0.3, 1)
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6, CompactVHT: true}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.N != n {
				b.Fatalf("counted %d, want %d", res.N, n)
			}
		}
	}
}

// e2FaultBench is the E2 run under an in-model fault plan: same schedule
// and config as e2Bench, with the plan layered over the adversary. The
// answer must stay exact — faults may only cost rounds.
func e2FaultBench(n int, planSpec string) func(b *testing.B) {
	return func(b *testing.B) {
		plan, err := faults.Parse(planSpec, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		s := plan.Wrap(dynnet.NewRandomConnected(n, 0.3, 1))
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.N != n {
				b.Fatalf("counted %d, want %d", res.N, n)
			}
		}
	}
}

// e2SolverReplayBench replays the leader's per-level counting over the
// VHT that E2's largest sweep point actually produces — the solver-heavy
// slice of an E2 run, isolated from the engine's round overhead so the
// incremental-vs-from-scratch ratio is visible. (Whole E2 runs are
// engine-bound: the VHT solve is microseconds either way, see E2Count.)
func e2SolverReplayBench(n int, incremental bool) func(b *testing.B) {
	return func(b *testing.B) {
		// The schedule pins the classic math/rand stream that PR 2's
		// snapshot measured (RandomConnectedSchedule moved to a per-round
		// PCG since): only the setup run consumes it, and keeping the VHT
		// byte-identical across snapshots is what makes this entry a
		// regression test of the solver rather than of the graph stream.
		s := dynnet.NewFunc(n, func(t int) *dynnet.Multigraph {
			rng := rand.New(rand.NewSource(1*1000003 + int64(t)))
			return dynnet.RandomConnected(n, 0.3, rng)
		})
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6}
		res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		depth := res.VHT.Depth()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver := historytree.NewSolver()
			for l := 0; l <= depth; l++ {
				var cres historytree.CountResult
				var err error
				if incremental {
					cres, err = solver.CountAt(res.VHT, l)
				} else {
					cres, err = historytree.Count(res.VHT, l)
				}
				if err != nil {
					b.Fatal(err)
				}
				if cres.Known && cres.N != n {
					b.Fatalf("wrong count at level %d: %+v", l, cres)
				}
			}
		}
	}
}

// e4Bench is the E4 red-edge run at its largest sweep point.
func e4Bench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		s := dynnet.NewRandomConnected(n, 0.5, 3)
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.VHT.RedEdgeCount(-1) == 0 {
				b.Fatal("no red edges recorded")
			}
		}
	}
}

// e6Bench is the non-congested full-information protocol (the linear
// backend) at the largest n of the old E6 sweep, now part of E17. The
// entry keeps its name so reports still compare against earlier
// snapshots, whose rows measured the retired baseline copy.
func e6Bench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		s := dynnet.NewRandomConnected(n, 0.3, 17)
		cfg := linear.Config{Mode: core.ModeLeader}
		for i := 0; i < b.N; i++ {
			res, err := linear.Run(s, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.N != n {
				b.Fatalf("counted %d, want %d", res.N, n)
			}
		}
	}
}

// engineBench is the engine's dense-delivery microbenchmark under the
// given scheduler: n processes echoing over a complete graph for 50 rounds
// per iteration. The Sequential/Parallel pair guards the inline one-shard
// hot path against regression and keeps the scheduler gap visible in every
// report.
func engineBench(n int, sched engine.Scheduler) func(b *testing.B) {
	return func(b *testing.B) {
		const rounds = 50
		schedule := dynnet.NewStatic(dynnet.Complete(n))
		for i := 0; i < b.N; i++ {
			procs := make([]engine.Coroutine, n)
			for j := range procs {
				procs[j] = engine.CoroutineFunc(func(tr *engine.Transport) (any, error) {
					for r := 0; r < rounds; r++ {
						if _, err := tr.SendAndReceive(r); err != nil {
							return nil, err
						}
					}
					return nil, nil
				})
			}
			cfg := engine.Config{Schedule: schedule, MaxRounds: rounds + 1, Scheduler: sched}
			if _, err := engine.Run(cfg, procs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
