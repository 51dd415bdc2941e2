package core

import (
	"math/rand"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

func TestConfirmationWindowDelaysOutput(t *testing.T) {
	// With the window, the leader's output round must be at least n rounds
	// after the resolution could first have happened; with eager
	// termination it is strictly earlier on the same schedule.
	n := 6
	s := dynnet.NewRandomConnected(n, 0.4, 15)
	confirmed, err := Run(s, leaderInputs(n), Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(s, leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6, eager: true}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if confirmed.N != n || eager.N != n {
		t.Fatalf("counts %d / %d, want %d", confirmed.N, eager.N, n)
	}
	if confirmed.Stats.Rounds < eager.Stats.Rounds+n {
		t.Errorf("confirmation window too short: %d vs eager %d", confirmed.Stats.Rounds, eager.Stats.Rounds)
	}
	// The resolution level reported must be the same in both modes.
	if confirmed.Stats.Levels != eager.Stats.Levels {
		t.Errorf("levels differ: %d vs %d", confirmed.Stats.Levels, eager.Stats.Levels)
	}
}

// spikeSchedule is a random dense prefix of a seed-dependent length
// followed by a shifting path, a schedule that makes processes vanish into
// error phases at arbitrary points.
func spikeSchedule(n int, seed int64) dynnet.Schedule {
	cut := 10 + int(seed%40)
	return dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
		if round <= cut {
			return dynnet.RandomConnected(n, 0.8, rand.New(rand.NewSource(seed*997+int64(round))))
		}
		return dynnet.NewShiftingPath(n).Graph(round + int(seed))
	})
}

// TestEagerCountsWrongOnSpike pins why the confirmation window exists and
// why eager termination is not a product option: on this in-model spike
// schedule (fine-grained resets, n=5, seed 24) the leader resolves on a
// level-1 VHT that is missing a class, and only the window lets the error
// reach it before it outputs.
func TestEagerCountsWrongOnSpike(t *testing.T) {
	const n = 5
	cfg := Config{Mode: ModeLeader, FineGrainedReset: true, MaxLevels: 3*n + 10}
	window, err := Run(spikeSchedule(n, 24), leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.eager = true
	eager, err := Run(spikeSchedule(n, 24), leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if window.N != 5 || window.Stats.Rounds != 183 {
		t.Errorf("window: counted %d at round %d, want 5 at round 183", window.N, window.Stats.Rounds)
	}
	if eager.N != 6 || eager.Stats.Rounds != 43 {
		t.Errorf("eager: counted %d at round %d, want the wrong 6 at round 43", eager.N, eager.Stats.Rounds)
	}
}

// TestAdversarialSoakNeverWrong is the library's headline guarantee: across
// a broad sweep of adversaries, sizes, seeds, and modes, the computed count
// is always exactly n. This includes diameter-spike schedules engineered to
// make processes vanish into error phases at arbitrary points.
func TestAdversarialSoakNeverWrong(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	type mkSched func(n int, seed int64) dynnet.Schedule
	adversaries := map[string]mkSched{
		"random-sparse": func(n int, seed int64) dynnet.Schedule {
			return dynnet.NewRandomConnected(n, 0.15, seed)
		},
		"random-dense": func(n int, seed int64) dynnet.Schedule {
			return dynnet.NewRandomConnected(n, 0.8, seed)
		},
		"shifting-path": func(n int, _ int64) dynnet.Schedule { return dynnet.NewShiftingPath(n) },
		"spike":         spikeSchedule,
		"double-spike": func(n int, seed int64) dynnet.Schedule {
			return dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
				phase := (round / 25) % 2
				if phase == 0 {
					return dynnet.RandomConnected(n, 0.9, rand.New(rand.NewSource(seed*31+int64(round))))
				}
				return dynnet.NewShiftingPath(n).Graph(round)
			})
		},
	}
	for name, mk := range adversaries {
		for _, fine := range []bool{false, true} {
			for _, n := range []int{3, 5, 7, 9} {
				for seed := int64(1); seed <= 4; seed++ {
					cfg := Config{Mode: ModeLeader, FineGrainedReset: fine, MaxLevels: 3*n + 10}
					res, err := Run(mk(n, seed), leaderInputs(n), cfg, RunOptions{})
					if err != nil {
						t.Fatalf("%s fine=%v n=%d seed=%d: %v", name, fine, n, seed, err)
					}
					if res.N != n {
						t.Fatalf("%s fine=%v n=%d seed=%d: counted %d", name, fine, n, seed, res.N)
					}
				}
			}
		}
	}
}

func TestVHTCompleteDetectsVanishedClass(t *testing.T) {
	// Build a tree with a childless interior node and check the detector.
	tr := newTestTree(t)
	if !vhtComplete(tr, 2) {
		t.Fatal("complete tree flagged incomplete")
	}
	// Add an interior node without children at level 1 of a depth-2 tree.
	orphanParent := tr.Level(0)[0]
	if _, err := tr.AddChild(99, orphanParent, vhtInput(false)); err != nil {
		t.Fatal(err)
	}
	if vhtComplete(tr, 2) {
		t.Fatal("childless interior node not detected")
	}
}

// newTestTree builds root → {0: leader, 1: other} → level 1 → level 2 with
// every interior node having a child.
func newTestTree(t *testing.T) *historytree.Tree {
	t.Helper()
	tr := historytree.New()
	n0, err := tr.AddChild(0, tr.Root(), historytree.Input{Leader: true})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := tr.AddChild(1, tr.Root(), historytree.Input{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := tr.AddChild(2, n0, historytree.Input{})
	if err != nil {
		t.Fatal(err)
	}
	n3, err := tr.AddChild(3, n1, historytree.Input{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddChild(4, n2, historytree.Input{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddChild(5, n3, historytree.Input{}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// vhtInput is a tiny helper for the detector test.
func vhtInput(leader bool) historytree.Input { return historytree.Input{Leader: leader} }
