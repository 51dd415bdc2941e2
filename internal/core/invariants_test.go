package core

import (
	"errors"
	"fmt"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	testoracle "anondyn/internal/oracle"
)

// cardinalities reconstructs the true cardinality of every VHT node from
// the recorder's per-level ID assignments (plus the pre-agreed level 0 in
// basic mode), keyed by node ID.
func cardinalities(t *testing.T, res *RunResult, rec *Recorder, inputs []historytree.Input, basicMode bool) map[int]int {
	t.Helper()
	card := make(map[int]int)
	card[historytree.RootID] = len(inputs)
	if basicMode {
		for _, in := range inputs {
			if in.Leader {
				card[0]++
			} else {
				card[1]++
			}
		}
	}
	start := 1
	if !basicMode {
		start = 0
	}
	for l := start; l <= res.Stats.Levels; l++ {
		ids := rec.IDsAtLevel(l)
		if len(ids) != len(inputs) {
			t.Fatalf("level %d: recorder has %d IDs for %d processes", l, len(ids), len(inputs))
		}
		for _, id := range ids {
			card[id]++
		}
	}
	return card
}

// TestVHTCardinalityConsistency is the Lemma 4.4 check: the effective VHT
// must be a genuine history tree of SOME network whose class cardinalities
// are the processes' actual ID assignments — children partition parents
// and every red-edge balance equation holds for the true counts.
func TestVHTCardinalityConsistency(t *testing.T) {
	schedules := []struct {
		name string
		mk   func(n int) dynnet.Schedule
	}{
		{name: "random", mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.4, 5) }},
		{name: "shifting-path", mk: func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) }},
		{name: "bottleneck", mk: func(n int) dynnet.Schedule { return dynnet.NewBottleneck(n) }},
	}
	for _, tt := range schedules {
		for _, n := range []int{3, 6, 9} {
			t.Run(fmt.Sprintf("%s/n=%d", tt.name, n), func(t *testing.T) {
				rec := NewRecorder()
				cfg := Config{Mode: ModeLeader, MaxLevels: 3*n + 6, Recorder: rec}
				res, err := Run(tt.mk(n), leaderInputs(n), cfg, RunOptions{})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.N != n {
					t.Fatalf("counted %d", res.N)
				}
				card := cardinalities(t, res, rec, leaderInputs(n), true)
				if err := testoracle.CheckWeights(res.VHT, res.Stats.Levels, card); err != nil {
					t.Fatalf("VHT inconsistent with true cardinalities: %v", err)
				}
			})
		}
	}
}

func TestVHTLevelStructure(t *testing.T) {
	// Level sizes never exceed n and never decrease (classes only refine).
	for _, n := range []int{4, 7, 10} {
		res, err := Run(dynnet.NewRandomConnected(n, 0.3, 9), leaderInputs(n),
			Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for l := 0; l <= res.Stats.Levels; l++ {
			size := len(res.VHT.Level(l))
			if size > n {
				t.Fatalf("n=%d level %d has %d classes", n, l, size)
			}
			if size < prev {
				t.Fatalf("n=%d level %d shrank: %d < %d", n, l, size, prev)
			}
			prev = size
		}
	}
}

// TestRedEdgeBoundLemma46 checks the amortized bound of Lemma 4.6:
// R_m ≤ 2n(m+n) red edges over the first m levels.
func TestRedEdgeBoundLemma46(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10} {
		for _, mk := range []func(int) dynnet.Schedule{
			func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.6, 2) },
			func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) },
		} {
			res, err := Run(mk(n), leaderInputs(n),
				Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Stats.Levels
			red := res.VHT.RedEdgeCount(-1)
			if bound := 2 * n * (m + n); red > bound {
				t.Errorf("n=%d m=%d: %d red edges exceed Lemma 4.6 bound %d", n, m, red, bound)
			}
		}
	}
}

func TestDeterministicProtocolRuns(t *testing.T) {
	run := func() *RunResult {
		res, err := Run(dynnet.NewRandomConnected(6, 0.4, 77), leaderInputs(6),
			Config{Mode: ModeLeader, MaxLevels: 24}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	// Timing fields are measurements, not protocol state; blank them
	// before demanding bit-identical stats.
	sa, sb := a.Stats, b.Stats
	sa.WallClock, sa.SolverTime = 0, 0
	sb.WallClock, sb.SolverTime = 0, 0
	if a.N != b.N || sa != sb {
		t.Fatalf("nondeterministic runs: %+v vs %+v", sa, sb)
	}
	if !testoracle.Isomorphic(a.VHT, b.VHT) {
		t.Fatal("VHTs differ across identical runs")
	}
}

// TestDiameterSpikeForcesResets injects a failure: the network is a
// complete graph long enough for the diameter estimate to settle at 1,
// then turns into a shifting path whose dynamic diameter exceeds it, which
// must produce faulty broadcasts, error phases, and resets — and still the
// correct count.
func TestDiameterSpikeForcesResets(t *testing.T) {
	n := 6
	spike := dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
		if round <= 6 {
			return dynnet.Complete(n)
		}
		return dynnet.NewShiftingPath(n).Graph(round)
	})
	rec := NewRecorder()
	res, err := Run(spike, leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6, Recorder: rec}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d, want %d", res.N, n)
	}
	if rec.Resets() == 0 {
		t.Error("diameter spike should have forced at least one reset")
	}
	for _, d := range rec.DiamHistory() {
		if d > 4*n {
			t.Errorf("reset raised the estimate to %d > 4n", d)
		}
	}
}

func TestResetBoundLemma47(t *testing.T) {
	// Resets ≤ log₂(4n)+1 and final estimate ≤ 4n on every adversary.
	adversaries := map[string]func(n int) dynnet.Schedule{
		"shifting-path": func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) },
		"bottleneck":    func(n int) dynnet.Schedule { return dynnet.NewBottleneck(n) },
		"static-path":   func(n int) dynnet.Schedule { return dynnet.NewStatic(dynnet.Path(n)) },
	}
	for name, mk := range adversaries {
		for _, n := range []int{4, 8, 12} {
			rec := NewRecorder()
			res, err := Run(mk(n), leaderInputs(n),
				Config{Mode: ModeLeader, MaxLevels: 3*n + 6, Recorder: rec}, RunOptions{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if res.Stats.FinalDiamEstimate > 4*n {
				t.Errorf("%s n=%d: final estimate %d > 4n", name, n, res.Stats.FinalDiamEstimate)
			}
			maxResets := 0
			for v := 4 * n; v > 1; v >>= 1 {
				maxResets++
			}
			if res.Stats.Resets > maxResets+1 {
				t.Errorf("%s n=%d: %d resets exceed log bound %d", name, n, res.Stats.Resets, maxResets+1)
			}
		}
	}
}

func TestCongestionEnforcement(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.3, 3)
	// A 64-bit budget comfortably fits every O(log n)-bit message.
	if _, err := Run(s, leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{BitLimit: 64}); err != nil {
		t.Fatalf("64-bit limit should pass: %v", err)
	}
	// An 8-bit budget cannot even fit a Begin message.
	_, err := Run(s, leaderInputs(n),
		Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{BitLimit: 8})
	var ble *engine.BitLimitError
	if !errors.As(err, &ble) {
		t.Fatalf("8-bit limit should fail with BitLimitError, got %v", err)
	}
}

func TestMaxLevelsAborts(t *testing.T) {
	// A 1-level cap cannot accommodate counting 5 processes on a path.
	_, err := Run(dynnet.NewStatic(dynnet.Path(5)), leaderInputs(5),
		Config{Mode: ModeLeader, MaxLevels: 1}, RunOptions{})
	if err == nil {
		t.Fatal("expected MaxLevels error")
	}
}

func TestManySeedsNeverWrong(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 12; seed++ {
		for _, n := range []int{2, 3, 5, 8} {
			s := dynnet.NewRandomConnected(n, float64(seed%4)*0.25, seed)
			res, err := Run(s, leaderInputs(n),
				Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
			if err != nil {
				t.Fatalf("seed=%d n=%d: %v", seed, n, err)
			}
			if res.N != n {
				t.Fatalf("seed=%d n=%d: counted %d", seed, n, res.N)
			}
		}
	}
}

func TestGeneralizedCardinalityConsistency(t *testing.T) {
	// Same Lemma 4.4 check, but with the input-built level 0.
	inputs := []historytree.Input{
		{Leader: true, Value: 1},
		{Value: 2}, {Value: 2}, {Value: 3}, {Value: 3}, {Value: 3}, {Value: 2},
	}
	n := len(inputs)
	rec := NewRecorder()
	cfg := Config{Mode: ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 6, Recorder: rec}
	res, err := Run(dynnet.NewRandomConnected(n, 0.4, 19), inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	card := cardinalities(t, res, rec, inputs, false)
	if err := testoracle.CheckWeights(res.VHT, res.Stats.Levels, card); err != nil {
		t.Fatalf("VHT inconsistent: %v", err)
	}
	// Level 0 must carry the exact input classes with true counts.
	for _, v := range res.VHT.Level(0) {
		want := 0
		for _, in := range inputs {
			if in == v.Input {
				want++
			}
		}
		if card[v.ID] != want {
			t.Errorf("L0 class %s has %d processes, want %d", v.Input, card[v.ID], want)
		}
	}
}
