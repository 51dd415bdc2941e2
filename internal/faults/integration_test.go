package faults_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
)

// leaderIn builds n inputs with process 0 as the leader.
func leaderIn(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	in[0].Leader = true
	return in
}

// valueIn builds n leaderless inputs with values i mod 2.
func valueIn(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	for i := range in {
		in[i].Value = int64(i % 2)
	}
	return in
}

// wrapT turns a connected inner schedule into a T-union-connected one for
// T > 1 and wraps the plan over it.
func wrapT(t *testing.T, inner dynnet.Schedule, plan *faults.Plan, T int) dynnet.Schedule {
	t.Helper()
	base := inner
	if T > 1 {
		uc, err := dynnet.NewUnionConnected(inner, T)
		if err != nil {
			t.Fatal(err)
		}
		base = uc
	}
	return plan.Wrap(base)
}

// TestMatrixInModelFaultsStillCount is the integration matrix of the fault
// suite: leader-mode and leaderless runs, T ∈ {1, 2, 4, 8}, under every
// in-model fault plan, must still produce the exact ground truth — with
// the invariant checker attached to every run, so reset monotonicity and
// history-tree well-formedness are asserted live and post-hoc.
func TestMatrixInModelFaultsStillCount(t *testing.T) {
	plans := []string{
		"spike:5:30",
		"cut:3:20",
		"storm:1:0:3",
		"burst:1:0",
		"spike:4:16,storm:1:0:2",
	}
	n := 5
	for _, T := range []int{1, 2, 4, 8} {
		for _, spec := range plans {
			plan, err := faults.Parse(spec, T, 7)
			if err != nil {
				t.Fatal(err)
			}
			inner := dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)

			t.Run(fmt.Sprintf("leader/T=%d/%s", T, spec), func(t *testing.T) {
				inputs := leaderIn(n)
				cfg := core.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8}
				checker := check.New(inputs)
				checker.Attach(&cfg)
				res, err := core.Run(wrapT(t, inner, plan, T), inputs, cfg, core.RunOptions{})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.N != n {
					t.Fatalf("counted %d, want %d", res.N, n)
				}
				if err := checker.Verify(res); err != nil {
					t.Fatalf("invariant checker: %v", err)
				}
			})

			t.Run(fmt.Sprintf("leaderless/T=%d/%s", T, spec), func(t *testing.T) {
				inputs := valueIn(n)
				cfg := core.Config{
					Mode:      core.ModeLeaderless,
					DiamBound: n * T,
					BlockT:    T,
					MaxLevels: 3*n + 8,
				}
				checker := check.New(inputs)
				checker.Attach(&cfg)
				res, err := core.Run(wrapT(t, inner, plan, T), inputs, cfg, core.RunOptions{})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := checker.Verify(res); err != nil {
					t.Fatalf("invariant checker: %v", err)
				}
			})
		}
	}
}

// TestGeneralizedCountingUnderFaults runs the Generalized Counting
// extension (input level + value multiset) under a combined in-model plan.
func TestGeneralizedCountingUnderFaults(t *testing.T) {
	inputs := []historytree.Input{
		{Leader: true}, {Value: 1}, {Value: 1}, {Value: 2}, {Value: 2}, {Value: 2},
	}
	n := len(inputs)
	plan, err := faults.Parse("spike:6:20,storm:1:0:2", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 8}
	checker := check.New(inputs)
	checker.Attach(&cfg)
	res, err := core.Run(plan.Wrap(dynnet.NewRandomConnected(n, 0.5, 8)), inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d, want %d", res.N, n)
	}
	if res.Multiset[historytree.Input{Value: 2}] != 3 {
		t.Fatalf("multiset: %v", res.Multiset)
	}
	if err := checker.Verify(res); err != nil {
		t.Fatalf("invariant checker: %v", err)
	}
}

// TestPinnedSpikePlanForcesReset is the seeded regression the fault suite
// is anchored on: this exact plan over this exact schedule provably forces
// the error/reset machinery to fire at least once (the protocol calibrates
// its diameter estimate on the complete prefix, then the spike stretches
// the dynamic diameter to Θ(n) and acknowledgments miss their deadline),
// and the run still counts exactly. If a refactor of the reset machinery
// makes this pass trivially (zero resets) or fail, it changed protocol
// behaviour.
func TestPinnedSpikePlanForcesReset(t *testing.T) {
	const (
		n        = 6
		planSpec = "spike:8:0"
		seed     = 42
	)
	plan, err := faults.Parse(planSpec, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs := leaderIn(n)
	cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
	checker := check.New(inputs)
	checker.Attach(&cfg)
	res, err := core.Run(plan.Wrap(dynnet.NewStatic(dynnet.Complete(n))), inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d, want %d", res.N, n)
	}
	if res.Stats.Resets < 1 {
		t.Fatalf("pinned plan %q forced %d resets, want ≥ 1", planSpec, res.Stats.Resets)
	}
	if err := checker.Verify(res); err != nil {
		t.Fatalf("invariant checker: %v", err)
	}
	t.Logf("pinned plan %q: rounds=%d resets=%d finalDiam=%d",
		planSpec, res.Stats.Rounds, res.Stats.Resets, res.Stats.FinalDiamEstimate)
}

// TestOutOfModelFaultsFailDetectably is the watchdog contract: under
// out-of-model faults the run may never produce an answer, but it must
// terminate with a structured *engine.WatchdogError within the deadline —
// no hangs, no stuck goroutines (this test runs under -race in CI). Each
// plan wraps two random base schedules; scheduler=i is the one with seed
// 4+i.
func TestOutOfModelFaultsFailDetectably(t *testing.T) {
	cases := []struct {
		name string
		spec string
		halt bool
	}{
		// Every link dropped forever: each process is permanently isolated.
		// Under SimultaneousHalt the leader halts alone (it counts only
		// itself) while the others can never receive the Halt broadcast, so
		// the run is wedged until the watchdog ends it.
		{name: "all-links-dropped", spec: "drop:1:0:1", halt: true},
		// The crashed leader never acknowledges anything; MaxLevels is
		// uncapped so the wedge cannot exit through the level guard.
		{name: "leader-crashed-forever", spec: "crash:0:3:0"},
	}
	n := 5
	for sched := range 2 {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/scheduler=%d", tc.name, sched), func(t *testing.T) {
				plan, err := faults.Parse(tc.spec, 1, 9)
				if err != nil {
					t.Fatal(err)
				}
				if plan.InModel() {
					t.Fatalf("plan %q must be out-of-model", tc.spec)
				}
				cfg := core.Config{Mode: core.ModeLeader, SimultaneousHalt: tc.halt}
				opts := core.RunOptions{
					Deadline:  100 * time.Millisecond,
					MaxRounds: 1 << 30, // the watchdog, not the round cap, must end the run
				}
				start := time.Now()
				_, err = core.Run(plan.Wrap(dynnet.NewRandomConnected(n, 0.5, 4+int64(sched))), leaderIn(n), cfg, opts)
				if !errors.Is(err, engine.ErrWatchdog) {
					t.Fatalf("got %v, want ErrWatchdog", err)
				}
				var wderr *engine.WatchdogError
				if !errors.As(err, &wderr) {
					t.Fatalf("error %v is not a *WatchdogError", err)
				}
				if elapsed := time.Since(start); elapsed > 10*time.Second {
					t.Fatalf("watchdog needed %v to stop the run", elapsed)
				}
			})
		}
	}
}

// TestCheckerCatchesSilentlyWrongAnswer documents the second detectability
// channel: basic-mode total disconnection does NOT hang — the anonymous
// leader cannot distinguish "alone" from "unreachable peers", terminates,
// and reports n = 1. The run itself succeeds; it is the invariant
// checker's ground-truth comparison that turns the silent wrong answer
// into a failure.
func TestCheckerCatchesSilentlyWrongAnswer(t *testing.T) {
	n := 5
	plan, err := faults.Parse("drop:1:0:1", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs := leaderIn(n)
	cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
	checker := check.New(inputs)
	checker.Attach(&cfg)
	res, err := core.Run(plan.Wrap(dynnet.NewRandomConnected(n, 0.5, 4)), inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatalf("an isolated leader must still terminate cleanly: %v", err)
	}
	if res.N == n {
		t.Fatalf("a fully disconnected run cannot count %d processes", n)
	}
	if err := checker.Verify(res); err == nil {
		t.Fatal("checker accepted a wrong count")
	}
}

// TestInModelFaultsMatchFaultFreeAnswer pins that in-model faults change
// the execution (rounds differ) but never the answer.
func TestInModelFaultsMatchFaultFreeAnswer(t *testing.T) {
	n := 6
	inner := dynnet.NewRandomConnected(n, 0.4, 15)
	clean, err := core.Run(inner, leaderIn(n),
		core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("cut:2:25,storm:1:0:2", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := core.Run(plan.Wrap(inner), leaderIn(n),
		core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.N != faulted.N {
		t.Fatalf("fault-free count %d vs faulted count %d", clean.N, faulted.N)
	}
}
