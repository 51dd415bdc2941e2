package core

import (
	"reflect"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

// TestSolverOncePerLevel pins the incremental contract at the protocol
// level: on a reset-free run the leader invokes the counting solver exactly
// once per completed level, and the solver consumes each level's equations
// exactly once — no rebuilds, no fallbacks.
func TestSolverOncePerLevel(t *testing.T) {
	n := 6
	res, err := Run(dynnet.NewStatic(dynnet.Complete(n)), leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("N=%d, want %d", res.N, n)
	}
	if res.Stats.Resets != 0 {
		t.Fatalf("expected a reset-free run on a complete static graph, got %d resets", res.Stats.Resets)
	}
	var leader *Outcome
	for _, oc := range res.Outputs {
		if oc.Multiset != nil {
			leader = oc
		}
	}
	if leader == nil {
		t.Fatal("no leader outcome")
	}
	st := leader.Solver
	if st.Calls != res.Stats.Levels {
		t.Errorf("solver Calls=%d, want once per level = %d", st.Calls, res.Stats.Levels)
	}
	if st.LevelsConsumed != res.Stats.Levels {
		t.Errorf("LevelsConsumed=%d, want %d (each level's equations fed exactly once)",
			st.LevelsConsumed, res.Stats.Levels)
	}
	if st.Rebuilds != 0 || st.Fallbacks != 0 {
		t.Errorf("reset-free run rebuilt or fell back: %+v", st)
	}
	if res.Stats.SolverCalls != st.Calls || res.Stats.SolverTime != st.SolveTime {
		t.Errorf("RunStats solver fields %d/%v disagree with leader outcome %d/%v",
			res.Stats.SolverCalls, res.Stats.SolverTime, st.Calls, st.SolveTime)
	}
}

// TestSolverOncePerLevelLeaderless is the leaderless counterpart: every
// process evaluates frequencies once per level with no resets possible.
func TestSolverOncePerLevelLeaderless(t *testing.T) {
	n := 6
	inputs := make([]historytree.Input, n)
	for i := range inputs {
		inputs[i].Value = int64(i % 2)
	}
	res, err := Run(dynnet.NewStatic(dynnet.Cycle(n)), inputs,
		Config{Mode: ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for pid, oc := range res.Outputs {
		st := oc.Solver
		// Leaderless construction queries after the input level (level 0)
		// too, so there is one call more than completed refinement levels.
		if st.Calls != oc.Levels+1 || st.LevelsConsumed != oc.Levels {
			t.Errorf("pid %d: Calls=%d LevelsConsumed=%d, want %d and %d",
				pid, st.Calls, st.LevelsConsumed, oc.Levels+1, oc.Levels)
		}
		if st.Rebuilds != 0 || st.Fallbacks != 0 {
			t.Errorf("pid %d: leaderless run rebuilt or fell back: %+v", pid, st)
		}
	}
}

// TestSolverSurvivesProtocolResets injects a diameter spike that forces
// resets whose truncation removes VHT nodes (node IDs are then reused), and
// checks the persistent solver still produces the right count with no
// from-scratch fallbacks and at most one rebuild per reset. A reset that
// only discards the level under construction leaves the solver's consumed
// prefix intact — the generation check makes that safe either way, and the
// forced-rebuild path itself is covered by the historytree truncation
// tests.
func TestSolverSurvivesProtocolResets(t *testing.T) {
	n := 6
	spike := dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
		if round <= 10 {
			return dynnet.Complete(n)
		}
		return dynnet.NewShiftingPath(n).Graph(round)
	})
	res, err := Run(spike, leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("N=%d, want %d", res.N, n)
	}
	if res.Stats.Resets == 0 {
		t.Skip("schedule no longer produces resets; adjust the spike")
	}
	if res.VHT.Generation() == 0 {
		t.Error("expected the resets to truncate VHT nodes (generation stayed 0)")
	}
	var leader *Outcome
	for _, oc := range res.Outputs {
		if oc.Multiset != nil {
			leader = oc
		}
	}
	st := leader.Solver
	if st.Rebuilds > res.Stats.Resets {
		t.Errorf("more rebuilds (%d) than resets (%d)", st.Rebuilds, res.Stats.Resets)
	}
	if st.Fallbacks != 0 {
		t.Errorf("unexpected from-scratch fallbacks: %+v", st)
	}
}

// TestFromScratchAblationMatches replays the deciding process's solver
// queries on each run's final VHT: the incremental Solver the protocol
// consults and the from-scratch Count reference must give the same
// answer at every level, so the run cannot depend on which one decides.
func TestFromScratchAblationMatches(t *testing.T) {
	for _, seed := range []int64{1, 42, 77} {
		n := 7
		res, err := Run(dynnet.NewRandomConnected(n, 0.4, seed), leaderInputs(n),
			Config{Mode: ModeLeader, MaxLevels: 4 * n}, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.N != n {
			t.Fatalf("seed %d: counted %d, want %d", seed, res.N, n)
		}
		solver := historytree.NewSolver()
		for l := 0; l <= res.VHT.Depth(); l++ {
			inc, err := solver.CountAt(res.VHT, l)
			if err != nil {
				t.Fatalf("seed %d level %d: CountAt: %v", seed, l, err)
			}
			ref, err := historytree.Count(res.VHT, l)
			if err != nil {
				t.Fatalf("seed %d level %d: Count: %v", seed, l, err)
			}
			if !reflect.DeepEqual(inc, ref) {
				t.Errorf("seed %d level %d: incremental %+v, from-scratch %+v", seed, l, inc, ref)
			}
		}
	}
}
