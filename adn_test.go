package anondyn_test

import (
	"strings"
	"testing"

	"anondyn"
	"anondyn/internal/oracle"
)

func TestPublicCount(t *testing.T) {
	res, err := anondyn.Count(anondyn.RandomConnected(6, 0.4, 1), anondyn.LeaderInputs(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 6 {
		t.Fatalf("counted %d", res.N)
	}
	if res.Stats.MaxMessageBits > 64 {
		t.Fatalf("max message %d bits", res.Stats.MaxMessageBits)
	}
}

func TestPublicGraphConstruction(t *testing.T) {
	g := anondyn.NewGraph(3)
	g.MustAddLink(0, 1, 1)
	g.MustAddLink(1, 2, 1)
	res, err := anondyn.Count(anondyn.Static(g), anondyn.LeaderInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("counted %d", res.N)
	}
}

func TestPublicGraphsSequence(t *testing.T) {
	s, err := anondyn.Graphs(anondyn.Path(4), anondyn.Cycle(4), anondyn.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := anondyn.Count(s, anondyn.LeaderInputs(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 {
		t.Fatalf("counted %d", res.N)
	}
}

func TestPublicScheduleFunc(t *testing.T) {
	s := anondyn.ScheduleFunc(5, func(round int) *anondyn.Multigraph {
		if round%2 == 0 {
			return anondyn.Star(5, 0)
		}
		return anondyn.Cycle(5)
	})
	res, err := anondyn.Count(s, anondyn.LeaderInputs(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 5 {
		t.Fatalf("counted %d", res.N)
	}
}

func TestPublicOracleAndSolver(t *testing.T) {
	s := anondyn.RandomConnected(5, 0.5, 2)
	run, err := anondyn.BuildHistoryTree(s, anondyn.LeaderInputs(5), 17)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for l := 0; l <= 17; l++ {
		res, err := anondyn.CountTree(run.Tree, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Known {
			got = res.N
			break
		}
	}
	if got != 5 {
		t.Fatalf("solver found n=%d", got)
	}
	if out := anondyn.RenderTree(run.Tree); !strings.Contains(out, "L0:") {
		t.Error("RenderTree output malformed")
	}
	if out := anondyn.RenderTreeDOT(run.Tree, "t"); !strings.Contains(out, "digraph") {
		t.Error("RenderTreeDOT output malformed")
	}
}

func TestPublicBaselines(t *testing.T) {
	s := anondyn.RandomConnected(5, 0.4, 3)
	nc, err := anondyn.RunNonCongested(s, anondyn.LeaderInputs(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if nc.N != 5 {
		t.Fatalf("non-congested counted %d", nc.N)
	}
	tf, err := anondyn.RunTokenForward(s, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Estimate != 5 {
		t.Fatalf("token forwarding estimated %d", tf.Estimate)
	}
}

func TestPublicLeaderlessRun(t *testing.T) {
	inputs := make([]anondyn.Input, 6)
	for i := range inputs {
		inputs[i].Value = int64(i % 3)
	}
	res, err := anondyn.Run(anondyn.RandomConnected(6, 0.4, 4), inputs, anondyn.Config{
		Mode:      anondyn.ModeLeaderless,
		DiamBound: 6,
		MaxLevels: 24,
	}, anondyn.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frequencies == nil || res.Frequencies.MinSize != 3 {
		t.Fatalf("frequencies = %+v", res.Frequencies)
	}
}

func TestPublicCompute(t *testing.T) {
	inputs := []anondyn.Input{
		{Leader: true, Value: 10},
		{Value: 3}, {Value: 5}, {Value: 3}, {Value: 7},
	}
	n := len(inputs)
	s := anondyn.RandomConnected(n, 0.4, 8)

	// Sum of all inputs: 10+3+5+3+7 = 28.
	res, sum, err := anondyn.Compute(s, inputs, func(ms map[anondyn.Input]int) any {
		total := int64(0)
		for in, c := range ms {
			total += in.Value * int64(c)
		}
		return total
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("n=%d", res.N)
	}
	if sum != int64(28) {
		t.Fatalf("sum=%v, want 28", sum)
	}

	// Maximum input.
	_, max, err := anondyn.Compute(s, inputs, func(ms map[anondyn.Input]int) any {
		best := int64(-1 << 62)
		for in := range ms {
			if in.Value > best {
				best = in.Value
			}
		}
		return best
	})
	if err != nil {
		t.Fatal(err)
	}
	if max != int64(10) {
		t.Fatalf("max=%v, want 10", max)
	}
}

func TestPublicRunAdaptive(t *testing.T) {
	n := 5
	res, err := anondyn.RunAdaptive(anondyn.Isolator(n, 0), anondyn.LeaderInputs(n),
		anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 8}, anondyn.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}
}

func TestPublicFacadeCoverage(t *testing.T) {
	// Every façade constructor must hand back a working value.
	n := 4
	for name, s := range map[string]anondyn.Schedule{
		"rotating-star": anondyn.RotatingStar(n),
		"shifting-path": anondyn.ShiftingPath(n),
		"bottleneck":    anondyn.Bottleneck(n),
	} {
		if s.N() != n || !oracle.Connected(s.Graph(1)) {
			t.Errorf("%s: bad schedule", name)
		}
	}
	uc, err := anondyn.UnionConnected(anondyn.RotatingStar(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	if uc.N() != n {
		t.Fatal("union-connected schedule broken")
	}

	rec := anondyn.NewRecorder()
	res, err := anondyn.Run(anondyn.RotatingStar(n), anondyn.LeaderInputs(n),
		anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6, Recorder: rec},
		anondyn.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}

	// Leaderless tree solver façade.
	inputs := make([]anondyn.Input, n)
	for i := range inputs {
		inputs[i].Value = int64(i % 2)
	}
	run, err := anondyn.BuildHistoryTree(anondyn.RotatingStar(n), inputs, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= 3*n; l++ {
		f, err := anondyn.TreeFrequencies(run.Tree, l)
		if err != nil {
			t.Fatal(err)
		}
		if f.Known {
			if f.MinSize != 2 {
				t.Fatalf("MinSize=%d", f.MinSize)
			}
			return
		}
	}
	t.Fatal("frequencies never resolved")
}

func TestPublicComputeErrorPropagates(t *testing.T) {
	// A schedule/input mismatch must surface as an error, not a panic.
	_, _, err := anondyn.Compute(anondyn.RotatingStar(3), anondyn.LeaderInputs(4),
		func(map[anondyn.Input]int) any { return nil })
	if err == nil {
		t.Fatal("expected error for input count mismatch")
	}
}
