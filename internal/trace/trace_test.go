package trace

import (
	"fmt"
	"strings"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

func TestLoggerObservesFullRun(t *testing.T) {
	n := 5
	var buf strings.Builder
	logger := New(&buf)
	inputs := make([]historytree.Input, n)
	inputs[0].Leader = true
	res, err := core.Run(dynnet.NewStatic(dynnet.Path(n)), inputs,
		core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
		core.RunOptions{Trace: logger.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}
	if logger.rounds != res.Stats.Rounds {
		t.Errorf("logger saw %d rounds, run had %d", logger.rounds, res.Stats.Rounds)
	}
	// A path run must include Begin, Edge, Done, End, Error, and Reset
	// traffic (diameter 4 > initial estimate 1 forces resets).
	for _, lb := range []wire.Label{wire.LabelBegin, wire.LabelEdge, wire.LabelDone,
		wire.LabelEnd, wire.LabelError, wire.LabelReset} {
		if logger.labelTotals[lb] == 0 {
			t.Errorf("no %s messages observed", lb)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Begin(") || !strings.Contains(out, "Edge(") {
		t.Error("per-round log missing expected message lines")
	}
	sum := logger.Summary()
	for _, want := range []string{"trace summary", "error phases observed", "reset broadcasts observed"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestSummaryTotalsAndResetTimeline drives a schedule engineered to force
// the error/reset machinery (a shifting path has diameter Θ(n), far above
// the initial DiamEstimate of 1) and checks the summary's per-label totals
// and the error/reset timeline against an independent tally of the same
// engine hook — not just that the run happened to succeed.
func TestSummaryTotalsAndResetTimeline(t *testing.T) {
	n := 6
	logger := New(nil)
	rec := core.NewRecorder()

	// Independent tally: chain our own observer in front of the logger's.
	indep := make(map[wire.Label]int64)
	var indepRounds int
	hook := logger.Hook()
	chained := func(round int, sent []engine.Message) {
		indepRounds = round
		for _, raw := range sent {
			if m, ok := wire.FromBox(raw); ok {
				indep[m.Label]++
			}
		}
		hook(round, sent)
	}

	inputs := make([]historytree.Input, n)
	inputs[0].Leader = true
	res, err := core.Run(dynnet.NewShiftingPath(n), inputs,
		core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6, Recorder: rec},
		core.RunOptions{Trace: chained})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d, want %d", res.N, n)
	}
	if res.Stats.Resets < 1 {
		t.Fatalf("schedule failed to force a reset (resets=%d); the timeline assertions below are vacuous", res.Stats.Resets)
	}

	// Per-label totals must match the independent tally exactly, and sum to
	// the engine's total message count (every message carries a label).
	var sum int64
	for lb, want := range indep {
		if got := logger.labelTotals[lb]; got != want {
			t.Errorf("label %s: logger says %d, independent tally %d", lb, got, want)
		}
		sum += want
	}
	if sum != res.Stats.TotalMessages {
		t.Errorf("label totals sum to %d, engine sent %d messages", sum, res.Stats.TotalMessages)
	}
	if logger.rounds != indepRounds || logger.rounds != res.Stats.Rounds {
		t.Errorf("rounds: logger %d, independent %d, engine %d", logger.rounds, indepRounds, res.Stats.Rounds)
	}

	// Timeline: a reset is leader-initiated in response to an error phase,
	// so error traffic must be observed, and the first error-dominated
	// round must precede the first reset-dominated round.
	if len(logger.errorRounds) == 0 || len(logger.resetRounds) == 0 {
		t.Fatalf("timeline empty: errors at %v, resets at %v", logger.errorRounds, logger.resetRounds)
	}
	if logger.errorRounds[0] >= logger.resetRounds[0] {
		t.Errorf("first error round %d not before first reset round %d",
			logger.errorRounds[0], logger.resetRounds[0])
	}
	last := 0
	for _, r := range logger.resetRounds {
		if r < last {
			t.Fatalf("reset rounds not monotone: %v", logger.resetRounds)
		}
		last = r
	}
	if logger.resetRounds[len(logger.resetRounds)-1] > res.Stats.Rounds {
		t.Errorf("reset observed after the run ended: %v > %d", logger.resetRounds, res.Stats.Rounds)
	}

	// The rendered summary must carry exactly the observed totals and the
	// compressed timelines.
	sum2 := logger.Summary()
	for lb, want := range indep {
		needle := fmt.Sprintf("%-6s %d\n", lb, want)
		if !strings.Contains(sum2, needle) {
			t.Errorf("summary missing per-label total %q:\n%s", needle, sum2)
		}
	}
	for _, want := range []string{
		"error phases observed at rounds " + compressRuns(logger.errorRounds),
		"reset broadcasts observed at rounds " + compressRuns(logger.resetRounds),
	} {
		if !strings.Contains(sum2, want) {
			t.Errorf("summary missing %q:\n%s", want, sum2)
		}
	}
	if strings.Contains(sum2, "halt broadcast") {
		t.Errorf("no Halt was configured, yet the summary mentions one:\n%s", sum2)
	}
}

func TestLoggerNilWriterCollectsStats(t *testing.T) {
	logger := New(nil)
	hook := logger.Hook()
	null, begin, edge := wire.Null(), wire.Begin(1), wire.Edge(1, 2, 3)
	hook(1, []engine.Message{&null, &begin})
	hook(2, []engine.Message{&edge, "not-a-protocol-message"})
	if logger.rounds != 2 {
		t.Fatalf("rounds=%d", logger.rounds)
	}
	if logger.labelTotals[wire.LabelEdge] != 1 || logger.labelTotals[wire.LabelNull] != 1 {
		t.Fatal("label totals wrong")
	}
}

func TestCompressRuns(t *testing.T) {
	tests := []struct {
		in   []int
		want string
	}{
		{in: nil, want: ""},
		{in: []int{3}, want: "3"},
		{in: []int{3, 4, 5}, want: "3-5"},
		{in: []int{3, 4, 7, 9, 10}, want: "3-4, 7, 9-10"},
		{in: []int{1, 1, 2}, want: "1-2"},
	}
	for _, tt := range tests {
		if got := compressRuns(tt.in); got != tt.want {
			t.Errorf("compressRuns(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
