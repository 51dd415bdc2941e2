package linear_test

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// TestLinearViewBitsMatchOracle checks every message's bit size against
// the canonical View that the oracle renders from the same class set
// (linear.RunCheckingBits), over the checked-run matrix (forCheckedRuns),
// whose E17 views pass position 128 from n = 24 on. The synthetic views
// of TestLinearViewBitsBandEdges cover position 16384.
func TestLinearViewBitsMatchOracle(t *testing.T) {
	forCheckedRuns(t, linear.RunCheckingBits)
}

// TestLinearDecisionsMatchFresh checks every candidate scan of every
// process against the from-scratch decision that memoized answers
// replace (linear.RunCheckingDecisions), over the checked-run matrix.
func TestLinearDecisionsMatchFresh(t *testing.T) {
	forCheckedRuns(t, linear.RunCheckingDecisions)
}

// checkedRun is a linear.Run under a test oracle.
type checkedRun func(testing.TB, dynnet.Schedule, []historytree.Input, linear.Config, core.RunOptions) (*core.RunResult, error)

// forCheckedRuns runs the linear protocol under an oracle over leader and
// leaderless runs with the in-model fault plans at T ∈ {1, 2, 4, 8}, and
// over E17's n-points.
func forCheckedRuns(t *testing.T, run checkedRun) {
	n := 5
	for _, T := range []int{1, 2, 4, 8} {
		for _, spec := range inModelPlans {
			for _, mode := range []core.Mode{core.ModeLeader, core.ModeLeaderless} {
				inputs, cfg := leaderIn(n), linear.Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
				name := "leader"
				if mode == core.ModeLeaderless {
					inputs, cfg.DiamBound, name = valueIn(n), n*T, "leaderless"
				}
				t.Run(fmt.Sprintf("%s/T=%d/%s", name, T, spec), func(t *testing.T) {
					runChecked(t, run, faultedSchedule(t, n, spec, T, 0), inputs, cfg)
				})
			}
		}
	}
	for _, n := range []int{4, 6, 8, 10, 12, 24, 48} {
		t.Run(fmt.Sprintf("E17/n=%d", n), func(t *testing.T) {
			cfg := linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
			runChecked(t, run, dynnet.NewRandomConnected(n, 0.3, 17), leaderIn(n), cfg)
		})
	}
}

// runChecked runs the linear protocol under an oracle and verifies that
// the run succeeded and sent messages.
func runChecked(t *testing.T, run checkedRun, s dynnet.Schedule, inputs []historytree.Input, cfg linear.Config) {
	t.Helper()
	res, err := run(t, s, inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMessages == 0 {
		t.Fatal("no messages sent")
	}
}
