package core

import (
	"fmt"
	"math/rand"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	testoracle "anondyn/internal/oracle"
)

// newRand returns a fresh seeded RNG (for deterministic per-round graphs).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestFineGrainedResetCountsCorrectly(t *testing.T) {
	schedules := []struct {
		name string
		mk   func(n int) dynnet.Schedule
	}{
		// Every adversary that forces resets, plus easy ones.
		{name: "static-path", mk: func(n int) dynnet.Schedule { return dynnet.NewStatic(dynnet.Path(n)) }},
		{name: "shifting-path", mk: func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) }},
		{name: "bottleneck", mk: func(n int) dynnet.Schedule { return dynnet.NewBottleneck(n) }},
		{name: "random", mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.3, 8) }},
		{name: "rotating-star", mk: func(n int) dynnet.Schedule { return dynnet.NewRotatingStar(n) }},
	}
	for _, tt := range schedules {
		for _, n := range []int{2, 4, 6, 9} {
			t.Run(fmt.Sprintf("%s/n=%d", tt.name, n), func(t *testing.T) {
				rec := NewRecorder()
				cfg := Config{Mode: ModeLeader, FineGrainedReset: true, MaxLevels: 3*n + 6, Recorder: rec}
				res, err := Run(tt.mk(n), leaderInputs(n), cfg, RunOptions{})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.N != n {
					t.Fatalf("counted %d, want %d (resets=%d)", res.N, n, rec.Resets())
				}
			})
		}
	}
}

func TestFineGrainedResetPreservesVHTConsistency(t *testing.T) {
	// Lemma 4.4-style check under fine-grained resets: the rewound-and-
	// replayed VHT must still satisfy all cardinality constraints.
	n := 7
	rec := NewRecorder()
	cfg := Config{Mode: ModeLeader, FineGrainedReset: true, MaxLevels: 3*n + 6, Recorder: rec}
	res, err := Run(dynnet.NewShiftingPath(n), leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}
	if rec.Resets() == 0 {
		t.Fatal("shifting path must force resets for this test to be meaningful")
	}
	card := cardinalities(t, res, rec, leaderInputs(n), true)
	if err := testoracle.CheckWeights(res.VHT, res.Stats.Levels, card); err != nil {
		t.Fatalf("VHT inconsistent after fine resets: %v", err)
	}
}

func TestFineGrainedSavesWorkOverLevelResets(t *testing.T) {
	// The refinement must never redo a whole level's broadcasts: on
	// reset-heavy adversaries it should finish in at most as many rounds
	// as the basic algorithm (typically fewer).
	type outcome struct{ rounds, resets int }
	run := func(fine bool, n int, mk func(int) dynnet.Schedule) outcome {
		rec := NewRecorder()
		cfg := Config{Mode: ModeLeader, FineGrainedReset: fine, MaxLevels: 3*n + 6, Recorder: rec}
		res, err := Run(mk(n), leaderInputs(n), cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.N != n {
			t.Fatalf("counted %d, want %d", res.N, n)
		}
		return outcome{rounds: res.Stats.Rounds, resets: rec.Resets()}
	}
	// A diameter spike mid-level maximizes the work a level reset throws
	// away: dense rounds with diameter ≤ 2 let many broadcasts commit at a
	// small estimate, then the path topology invalidates the estimate with
	// most of the level already accepted. The fine-grained reset replays
	// that work locally instead of re-broadcasting it.
	spike := func(cut int) func(n int) dynnet.Schedule {
		return func(n int) dynnet.Schedule {
			return dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
				if round <= cut {
					return testoracle.RandomConnected(n, 0.8, newRand(int64(round)))
				}
				return dynnet.NewShiftingPath(n).Graph(round)
			})
		}
	}
	saved, cases := 0, 0
	for _, tc := range []struct {
		n, cut int
	}{{n: 7, cut: 40}, {n: 9, cut: 60}, {n: 11, cut: 80}} {
		basic := run(false, tc.n, spike(tc.cut))
		fine := run(true, tc.n, spike(tc.cut))
		t.Logf("n=%d cut=%d: basic %d rounds (%d resets), fine %d rounds (%d resets)",
			tc.n, tc.cut, basic.rounds, basic.resets, fine.rounds, fine.resets)
		cases++
		if fine.rounds < basic.rounds {
			saved++
		}
	}
	if saved < cases/2+1 {
		t.Errorf("fine-grained resets saved rounds in only %d of %d spike cases", saved, cases)
	}
}

func TestFineGrainedWithGeneralizedCounting(t *testing.T) {
	inputs := []historytree.Input{
		{Leader: true, Value: 9},
		{Value: 1}, {Value: 1}, {Value: 2}, {Value: 2}, {Value: 2},
	}
	n := len(inputs)
	// Shifting path: level-0 construction itself suffers faulty broadcasts.
	cfg := Config{Mode: ModeLeader, FineGrainedReset: true, BuildInputLevel: true, MaxLevels: 3*n + 6}
	res, err := Run(dynnet.NewShiftingPath(n), inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}
	want := map[historytree.Input]int{
		{Leader: true, Value: 9}: 1,
		{Value: 1}:               2,
		{Value: 2}:               3,
	}
	for in, c := range want {
		if res.Multiset[in] != c {
			t.Errorf("multiset[%s]=%d, want %d", in, res.Multiset[in], c)
		}
	}
}

func TestFineGrainedWithHaltAndBlocks(t *testing.T) {
	n, T := 5, 2
	inner := dynnet.NewShiftingPath(n)
	uc, err := dynnet.NewUnionConnected(inner, T)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeLeader, FineGrainedReset: true, SimultaneousHalt: true,
		BlockT: T, MaxLevels: 3*n + 6}
	res, err := Run(uc, leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n || len(res.Outputs) != n {
		t.Fatalf("N=%d outputs=%d", res.N, len(res.Outputs))
	}
}

func TestFineGrainedRejectedInLeaderlessMode(t *testing.T) {
	cfg := Config{Mode: ModeLeaderless, DiamBound: 4, FineGrainedReset: true}
	if err := cfg.Validate(make([]historytree.Input, 4)); err == nil {
		t.Fatal("fine-grained + leaderless must be rejected")
	}
}

func TestFineGrainedDeterminism(t *testing.T) {
	run := func() RunStats {
		res, err := Run(dynnet.NewShiftingPath(8), leaderInputs(8),
			Config{Mode: ModeLeader, FineGrainedReset: true, MaxLevels: 30}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Timing fields are measurements, not protocol state.
		res.Stats.WallClock, res.Stats.SolverTime = 0, 0
		return res.Stats
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic fine-grained runs: %+v vs %+v", a, b)
	}
}
