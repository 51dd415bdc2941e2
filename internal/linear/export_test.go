package linear

import (
	"fmt"
	"slices"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

// RunCheckingBits is Run with every message's size checked, before the
// message is sent, against the canonical View that buildView renders
// from the same class set, and every message's set checked, after the
// run, to be the one it was sized from. A mismatch is reported on tb and
// fails the sending process; so does a run that sent messages it did not
// check.
func RunCheckingBits(tb testing.TB, s dynnet.Schedule, inputs []historytree.Input,
	cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	tb.Helper()
	return runChecked(tb, s, inputs, cfg, opts, checkBits)
}

// RunCheckingDecisions is Run with every candidate scan of every process
// checked against the from-scratch decision it replaces (freshScan): the
// completeness bound, and Known, N, Multiset or Frequencies and
// error-ness at every candidate the scan visited. A difference is
// reported on tb and fails the scanning process; so does a run with
// scans it did not check.
func RunCheckingDecisions(tb testing.TB, s dynnet.Schedule, inputs []historytree.Input,
	cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	tb.Helper()
	return runChecked(tb, s, inputs, cfg, opts, checkDecisions)
}

// RunCheckingAll is Run under both oracles of RunCheckingBits and
// RunCheckingDecisions at once.
func RunCheckingAll(tb testing.TB, s dynnet.Schedule, inputs []historytree.Input,
	cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	tb.Helper()
	return runChecked(tb, s, inputs, cfg, opts, checkBits, checkDecisions)
}

// An oracle installs its hook for a run of n processes and returns the
// check of the finished run, which sees a nil result if the run failed.
type oracle func(tb testing.TB, h *hooks, n int, cfg Config) func(*core.RunResult)

// runChecked is Run with each oracle's hook installed and its check
// applied to the finished run.
func runChecked(tb testing.TB, s dynnet.Schedule, inputs []historytree.Input,
	cfg Config, opts core.RunOptions, oracles ...oracle) (*core.RunResult, error) {
	tb.Helper()
	var h hooks
	var after []func(*core.RunResult)
	for _, o := range oracles {
		after = append(after, o(tb, &h, len(inputs), cfg))
	}
	res, err := run(s, inputs, cfg, opts, h)
	for _, f := range after {
		f(res)
	}
	return res, err
}

// checkBits is RunCheckingBits's oracle.
func checkBits(tb testing.TB, h *hooks, _ int, _ Config) func(*core.RunResult) {
	type sent struct {
		m   *viewMsg
		set classSet
	}
	var log []sent
	h.send = func(in *interner, m *viewMsg) error {
		log = append(log, sent{m: m, set: slices.Clone(m.set)})
		if want := oracleBits(in, m); m.bits != want {
			err := fmt.Errorf("linear: a %d-class view sized %d bits, its canonical View %d",
				len(members(m.set)), m.bits, want)
			tb.Error(err)
			return err
		}
		return nil
	}
	return func(res *core.RunResult) {
		for _, s := range log {
			if !slices.Equal(s.m.set, s.set) {
				tb.Errorf("a %d-class message held %d classes once delivered",
					len(members(s.set)), len(members(s.m.set)))
				return
			}
		}
		if res != nil && int64(len(log)) < res.Stats.TotalMessages {
			tb.Errorf("checked %d of %d messages", len(log), res.Stats.TotalMessages)
		}
	}
}

// checkDecisions is RunCheckingDecisions's oracle. A leader scans at
// every block depth up to its output, and a leaderless process at every
// depth from ⌈D/T⌉ on, so a run of L levels makes L scans with a leader
// and n·(L − ⌈D/T⌉ + 1) without.
func checkDecisions(tb testing.TB, h *hooks, n int, cfg Config) func(*core.RunResult) {
	checked := 0
	h.scan = func(p *process, v *view, bound, last int) error {
		checked++
		if err := freshScan(p, v, bound, last); err != nil {
			tb.Error(err)
			return err
		}
		return nil
	}
	return func(res *core.RunResult) {
		if res == nil {
			return
		}
		want := res.Stats.Levels
		if cfg.Mode == core.ModeLeaderless {
			T := cfg.blockT()
			want = n * (res.Stats.Levels - (cfg.DiamBound+T-1)/T + 1)
		}
		if checked != want {
			tb.Errorf("checked %d candidate scans, the run made %d", checked, want)
		}
	}
}
