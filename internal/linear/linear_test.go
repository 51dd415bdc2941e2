package linear_test

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
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

func TestLinearCountsTopologies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for _, tc := range []struct {
			name  string
			sched dynnet.Schedule
		}{
			{"random", dynnet.NewRandomConnected(n, 0.3, int64(n))},
			{"path", dynnet.NewStatic(dynnet.Path(n))},
			{"complete", dynnet.NewStatic(dynnet.Complete(n))},
			{"shifting-path", dynnet.NewShiftingPath(n)},
			{"rotating-star", dynnet.NewRotatingStar(n)},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				cfg := linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
				res, err := linear.Run(tc.sched, leaderIn(n), cfg, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.N != n {
					t.Fatalf("counted %d, want %d", res.N, n)
				}
				if res.Stats.Rounds > 4*n+16 {
					t.Errorf("took %d rounds, expected Θ(n)", res.Stats.Rounds)
				}
				if res.Stats.TotalBits <= 0 || res.Stats.MaxMessageBits <= 0 {
					t.Fatalf("missing bit accounting: %+v", res.Stats)
				}
			})
		}
	}
}

// TestLinearMessageGrowth pins the cost side of the tradeoff: views must
// grow super-linearly in n — that is the point of the congested
// algorithm — so doubling n from 4 to 8 must at least quadruple the
// largest message.
func TestLinearMessageGrowth(t *testing.T) {
	bits := make(map[int]int)
	for _, n := range []int{4, 8} {
		res, err := linear.Run(dynnet.NewRandomConnected(n, 0.5, 9), leaderIn(n),
			linear.Config{Mode: core.ModeLeader}, core.RunOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bits[n] = res.Stats.MaxMessageBits
	}
	if bits[8] < 4*bits[4] {
		t.Errorf("views grew only from %d to %d bits; expected ≥ 4x growth", bits[4], bits[8])
	}
}

func TestLinearGeneralizedCounting(t *testing.T) {
	inputs := []historytree.Input{
		{Leader: true}, {Value: 1}, {Value: 1}, {Value: 2}, {Value: 2}, {Value: 2},
	}
	n := len(inputs)
	cfg := linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
	res, err := linear.Run(dynnet.NewRandomConnected(n, 0.5, 8), inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d, want %d", res.N, n)
	}
	if res.Multiset[historytree.Input{Value: 2}] != 3 || res.Multiset[historytree.Input{Leader: true}] != 1 {
		t.Fatalf("multiset: %v", res.Multiset)
	}
}

func TestLinearLeaderless(t *testing.T) {
	n := 6
	cfg := linear.Config{Mode: core.ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 8}
	res, err := linear.Run(dynnet.NewRandomConnected(n, 0.4, 11), valueIn(n), cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Frequencies
	if f == nil || !f.Known {
		t.Fatalf("no frequencies: %+v", res)
	}
	// 3 zeros and 3 ones → shares 1:1 of minimal size 2.
	if f.MinSize != 2 || f.Shares[historytree.Input{Value: 0}] != 1 || f.Shares[historytree.Input{Value: 1}] != 1 {
		t.Fatalf("frequencies: %+v", f)
	}
}

func TestLinearBlockSimulation(t *testing.T) {
	n := 5
	for _, T := range []int{2, 4} {
		t.Run(fmt.Sprintf("T=%d", T), func(t *testing.T) {
			inner := dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)
			sched, err := dynnet.NewUnionConnected(inner, T)
			if err != nil {
				t.Fatal(err)
			}
			cfg := linear.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8}
			res, err := linear.Run(sched, leaderIn(n), cfg, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.N != n {
				t.Fatalf("counted %d, want %d", res.N, n)
			}
		})
	}
}

// TestLinearSchedulerEquivalence pins the scheduler contract for the new
// backend: answers, rounds, levels and — thanks to the canonical view
// serialization — every bit-accounting stat must be identical on every
// entry of the engine matrix, even though interner ID assignment order is
// not.
func TestLinearSchedulerEquivalence(t *testing.T) {
	n := 7
	type key struct {
		n, rounds, levels, maxBits int
		totalMsgs, totalBits       int64
	}
	var want *key
	for i, sc := range schedulers {
		t.Run(fmt.Sprintf("sched=%d", i), func(t *testing.T) {
			setProcs(t, sc.procs)
			cfg := linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
			res, err := linear.Run(dynnet.NewRandomConnected(n, 0.3, 21), leaderIn(n), cfg,
				core.RunOptions{Scheduler: sc.s})
			if err != nil {
				t.Fatal(err)
			}
			got := key{
				n: res.N, rounds: res.Stats.Rounds, levels: res.Stats.Levels,
				maxBits: res.Stats.MaxMessageBits, totalMsgs: res.Stats.TotalMessages,
				totalBits: res.Stats.TotalBits,
			}
			if want == nil {
				want = &got
				return
			}
			if got != *want {
				t.Fatalf("diverged from sched=0: %+v vs %+v", got, *want)
			}
		})
	}
}

func TestLinearConfigValidation(t *testing.T) {
	n := 4
	sched := dynnet.NewStatic(dynnet.Complete(n))
	cases := []struct {
		name   string
		cfg    linear.Config
		inputs []historytree.Input
	}{
		{"no-leader", linear.Config{Mode: core.ModeLeader}, make([]historytree.Input, n)},
		{"two-leaders", linear.Config{Mode: core.ModeLeader}, func() []historytree.Input {
			in := leaderIn(n)
			in[1].Leader = true
			return in
		}()},
		{"leaderless-with-leader", linear.Config{Mode: core.ModeLeaderless, DiamBound: n}, leaderIn(n)},
		{"leaderless-no-diam", linear.Config{Mode: core.ModeLeaderless}, valueIn(n)},
		{"zero-mode", linear.Config{}, leaderIn(n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := linear.Run(sched, tc.inputs, tc.cfg, core.RunOptions{}); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}
