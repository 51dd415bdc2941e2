package faults_test

import (
	"fmt"
	"runtime"
	"testing"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
)

// TestMatrixFaultArithmeticEquivalence layers the solver's witness
// discipline over the fault matrix: for every in-model fault plan, in
// leader and leaderless mode, under both engine schedulers (the parallel
// one on 4 workers, so the ring splits even on one core), the run's final
// VHT is re-solved at every level up to the decision level under the
// big.Int exactness witness, which must agree with the multi-modular
// backend the run decided with — and the run must carry itself without
// ever falling back to the witness. Runs under -race in CI.
func TestMatrixFaultArithmeticEquivalence(t *testing.T) {
	plans := []string{
		"spike:5:30",
		"cut:3:20",
		"storm:1:0:3",
		"spike:4:16,storm:1:0:2",
	}
	n := 5
	withProcs(t, 4)
	for _, T := range []int{1, 4} {
		for _, spec := range plans {
			for _, sched := range []engine.Scheduler{engine.SchedulerSequential, engine.SchedulerParallel} {
				for _, leaderless := range []bool{false, true} {
					mode := "leader"
					if leaderless {
						mode = "leaderless"
					}
					t.Run(fmt.Sprintf("%s/T=%d/sched=%d/%s", mode, T, sched, spec), func(t *testing.T) {
						plan, err := faults.Parse(spec, T, 7)
						if err != nil {
							t.Fatal(err)
						}
						inner := dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)
						cfg := core.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8}
						inputs := leaderIn(n)
						if leaderless {
							cfg.Mode = core.ModeLeaderless
							cfg.DiamBound = n * T
							inputs = valueIn(n)
						}
						res, err := core.Run(wrapT(t, inner, plan, T), inputs, cfg,
							core.RunOptions{Scheduler: sched})
						if err != nil {
							t.Fatal(err)
						}
						if err := check.VerifyAnswer(inputs, res); err != nil {
							t.Fatal(err)
						}
						if err := check.VerifyWitness(res); err != nil {
							t.Fatal(err)
						}
						if res.Stats.SolverPrimes < 2 {
							t.Errorf("modular backend reports %d primes, want >= 2", res.Stats.SolverPrimes)
						}
					})
				}
			}
		}
	}
}

// withProcs raises GOMAXPROCS to at least procs for the rest of the test, so
// the parallel scheduler really splits the ring into several shards.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(procs, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
