package core_test

import (
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// TestQuietRoundsPinned pins RunStats.QuietRounds, the rounds the engine
// accounted in quiet stretches without a graph or a link (DESIGN.md
// decision 17), on the three run shapes the stretches were measured on,
// beside the runs' rounds. The linear protocol never relays, so it never
// jumps.
func TestQuietRoundsPinned(t *testing.T) {
	leader := func(n int) []historytree.Input {
		in := make([]historytree.Input, n)
		in[0].Leader = true
		return in
	}
	for _, tc := range []struct {
		name          string
		run           func() (*core.RunResult, error)
		rounds, quiet int
	}{
		{"isolator/n=32", func() (*core.RunResult, error) {
			return adversary.RunCountingUnderIsolator(32, core.Config{Mode: core.ModeLeader, MaxLevels: 3*32 + 8}, core.RunOptions{})
		}, 135254, 39099},
		{"random/n=96/seed=1", func() (*core.RunResult, error) {
			return core.Run(dynnet.NewRandomConnected(96, 0.3, 1), leader(96), core.Config{Mode: core.ModeLeader}, core.RunOptions{})
		}, 6798, 3266},
		{"path/n=48", func() (*core.RunResult, error) {
			return core.Run(dynnet.NewStatic(dynnet.Path(48)), leader(48), core.Config{Mode: core.ModeLeader}, core.RunOptions{})
		}, 602106, 217123},
		{"linear/random/n=32", func() (*core.RunResult, error) {
			return linear.Run(dynnet.NewRandomConnected(32, 0.3, 1), leader(32), linear.Config{Mode: core.ModeLeader}, core.RunOptions{})
		}, 34, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats; st.QuietRounds != tc.quiet || st.Rounds != tc.rounds {
				t.Errorf("%d quiet rounds of %d, want %d of %d", st.QuietRounds, st.Rounds, tc.quiet, tc.rounds)
			}
		})
	}
}
