package historytree

import (
	"testing"
	"testing/quick"

	"anondyn/internal/dynnet"
)

// TestSolverMatchesCountEveryLevel is the tentpole equivalence property on
// a deterministic grid: for random connected schedules, the incremental
// Solver must agree with the from-scratch Count at every complete level,
// for n ∈ {2..12} × 3 seeds.
func TestSolverMatchesCountEveryLevel(t *testing.T) {
	densities := []float64{0.15, 0.5, 0.85}
	for n := 2; n <= 12; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := dynnet.NewRandomConnected(n, densities[seed], seed+1)
			rounds := 3*n + 2
			run := BuildTree(t, s, LeaderInputs(n), rounds)
			solver := NewSolver()
			for l := 0; l <= rounds; l++ {
				ref, err := Count(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: Count: %v", n, seed, l, err)
				}
				inc, err := solver.CountAt(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: CountAt: %v", n, seed, l, err)
				}
				if !SameCount(ref, inc) {
					t.Fatalf("n=%d seed=%d level=%d: incremental %+v != from-scratch %+v",
						n, seed, l, inc, ref)
				}
			}
			if st := solver.Stats(); st.Fallbacks != 0 || st.Rebuilds != 0 {
				t.Fatalf("n=%d seed=%d: unexpected fallbacks/rebuilds on pure growth: %+v", n, seed, st)
			}
		}
	}
}

// TestSolverMatchesFrequenciesEveryLevel is the leaderless counterpart.
func TestSolverMatchesFrequenciesEveryLevel(t *testing.T) {
	for n := 2; n <= 10; n += 2 {
		for seed := int64(0); seed < 3; seed++ {
			inputs := make([]Input, n)
			for i := range inputs {
				inputs[i].Value = int64(i % 3)
			}
			s := dynnet.NewRandomConnected(n, 0.4, 100+seed)
			rounds := 3*n + 2
			run := BuildTree(t, s, inputs, rounds)
			solver := NewSolver()
			for l := 0; l <= rounds; l++ {
				ref, err := Frequencies(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: Frequencies: %v", n, seed, l, err)
				}
				inc, err := solver.FrequenciesAt(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: FrequenciesAt: %v", n, seed, l, err)
				}
				if !SameFreq(ref, inc) {
					t.Fatalf("n=%d seed=%d level=%d: incremental %+v != from-scratch %+v",
						n, seed, l, inc, ref)
				}
			}
		}
	}
}

// TestSolverQuickEquivalence drives the same property through testing/quick
// with randomized size, density, and seed.
func TestSolverQuickEquivalence(t *testing.T) {
	prop := func(nRaw, densRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%11
		density := 0.05 + 0.9*float64(densRaw)/255
		s := dynnet.NewRandomConnected(n, density, seed)
		rounds := 3*n + 2
		run, err := Build(s, LeaderInputs(n), rounds)
		if err != nil {
			t.Logf("Build(n=%d, density=%.2f, seed=%d): %v", n, density, seed, err)
			return false
		}
		solver := NewSolver()
		for l := 0; l <= rounds; l++ {
			ref, err1 := Count(run.Tree, l)
			inc, err2 := solver.CountAt(run.Tree, l)
			if err1 != nil || err2 != nil {
				t.Logf("n=%d seed=%d level=%d: errs %v / %v", n, seed, l, err1, err2)
				return false
			}
			if !SameCount(ref, inc) {
				t.Logf("n=%d density=%.2f seed=%d level=%d: %+v != %+v", n, density, seed, l, inc, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverConsumesEachLevelOnce pins the incremental contract: a level's
// equations are fed exactly once, repeated queries at the same level do no
// elimination work, and pure growth never rebuilds.
func TestSolverConsumesEachLevelOnce(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.3, 5)
	rounds := 3*n + 2
	run := BuildTree(t, s, LeaderInputs(n), rounds)
	solver := NewSolver()
	for l := 0; l <= rounds; l++ {
		if _, err := solver.CountAt(run.Tree, l); err != nil {
			t.Fatalf("CountAt(%d): %v", l, err)
		}
		st := solver.Stats()
		if st.LevelsConsumed != l {
			t.Fatalf("after level %d: LevelsConsumed=%d, want %d", l, st.LevelsConsumed, l)
		}
		eq := st.Equations
		if _, err := solver.CountAt(run.Tree, l); err != nil {
			t.Fatalf("repeat CountAt(%d): %v", l, err)
		}
		st = solver.Stats()
		if st.LevelsConsumed != l || st.Equations != eq {
			t.Fatalf("repeated query at level %d did work: %+v", l, st)
		}
	}
	if st := solver.Stats(); st.Rebuilds != 0 || st.Fallbacks != 0 {
		t.Fatalf("pure growth caused rebuilds or fallbacks: %+v", st)
	}
}

// TestSolverRebuildsAfterTruncation exercises the reset path: truncating
// the tree (which reuses node IDs in the real protocol) must invalidate the
// solver's consumed prefix, and answers must still match from-scratch.
func TestSolverRebuildsAfterTruncation(t *testing.T) {
	n := 7
	s := dynnet.NewRandomConnected(n, 0.4, 11)
	rounds := 3*n + 2
	run := BuildTree(t, s, LeaderInputs(n), rounds)
	solver := NewSolver()
	if _, err := solver.CountAt(run.Tree, rounds); err != nil {
		t.Fatalf("CountAt: %v", err)
	}
	gen := run.Tree.Generation()
	run.Tree.TruncateLevels(5)
	if run.Tree.Generation() == gen {
		t.Fatal("TruncateLevels did not bump the generation")
	}
	depth := run.Tree.Depth()
	for l := 0; l <= depth; l++ {
		ref, err := Count(run.Tree, l)
		if err != nil {
			t.Fatalf("Count(%d): %v", l, err)
		}
		inc, err := solver.CountAt(run.Tree, l)
		if err != nil {
			t.Fatalf("CountAt(%d): %v", l, err)
		}
		if !SameCount(ref, inc) {
			t.Fatalf("level %d after truncation: %+v != %+v", l, inc, ref)
		}
	}
	if st := solver.Stats(); st.Rebuilds != 1 {
		t.Fatalf("want exactly 1 rebuild after truncation, got %+v", st)
	}
}

// TestSolverShallowerQueryRebuilds covers the regression path: asking for a
// shallower level than already consumed forces a rebuild but stays correct.
func TestSolverShallowerQueryRebuilds(t *testing.T) {
	n := 6
	s := dynnet.NewRandomConnected(n, 0.5, 3)
	rounds := 3 * n
	run := BuildTree(t, s, LeaderInputs(n), rounds)
	solver := NewSolver()
	if _, err := solver.CountAt(run.Tree, rounds); err != nil {
		t.Fatal(err)
	}
	ref, err := Count(run.Tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := solver.CountAt(run.Tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !SameCount(ref, inc) {
		t.Fatalf("shallow re-query: %+v != %+v", inc, ref)
	}
	if st := solver.Stats(); st.Rebuilds != 1 {
		t.Fatalf("want 1 rebuild for the shallower query, got %+v", st)
	}
}

// TestSolverStaticTopologies mirrors TestCountStaticTopologies through the
// incremental path, including the n=1 and n=2 edge cases.
func TestSolverStaticTopologies(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		graph func(n int) *dynnet.Multigraph
	}{
		{name: "path", n: 6, graph: dynnet.Path},
		{name: "cycle", n: 7, graph: dynnet.Cycle},
		{name: "complete", n: 8, graph: dynnet.Complete},
		{name: "star", n: 9, graph: func(n int) *dynnet.Multigraph { return dynnet.Star(n, 0) }},
		{name: "single", n: 1, graph: dynnet.Complete},
		{name: "pair", n: 2, graph: dynnet.Path},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := dynnet.NewStatic(tt.graph(tt.n))
			rounds := 3*tt.n + 2
			run := BuildTree(t, s, LeaderInputs(tt.n), rounds)
			solver := NewSolver()
			resolved := -1
			for l := 0; l <= rounds; l++ {
				res, err := solver.CountAt(run.Tree, l)
				if err != nil {
					t.Fatalf("CountAt(%d): %v", l, err)
				}
				if res.Known {
					if res.N != tt.n {
						t.Fatalf("got n=%d, want %d (level %d)", res.N, tt.n, l)
					}
					resolved = l
					break
				}
			}
			if resolved < 0 {
				t.Fatalf("solver never resolved within %d levels", rounds)
			}
		})
	}
}

// TestResolvableGate checks the satellite-2 gate agrees with the rank
// condition: when Resolvable says no, Count must report unknown.
func TestResolvableGate(t *testing.T) {
	// A path network resolves slowly: early levels have classes whose
	// ancestor chains carry no cross red edge yet.
	s := dynnet.NewStatic(dynnet.Path(6))
	run := BuildTree(t, s, LeaderInputs(6), 20)
	sawGated := false
	for l := 0; l <= 20; l++ {
		res, err := Count(run.Tree, l)
		if err != nil {
			t.Fatal(err)
		}
		if !Resolvable(run.Tree, l) {
			sawGated = true
			if res.Known {
				t.Fatalf("level %d: gate fired but Count resolved", l)
			}
		}
	}
	if !sawGated {
		t.Log("gate never fired on this schedule (acceptable, but unexpected for a path)")
	}
}
