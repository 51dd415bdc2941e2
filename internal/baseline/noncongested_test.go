package baseline_test

import (
	"testing"

	"anondyn"
	"anondyn/internal/dynnet"
)

// TestNonCongestedCountsCorrectly checks the paper's other Section 1.2
// comparison point, the non-congested full-information protocol, through
// the public entry point the experiments use (anondyn.RunNonCongested,
// served by the internal/linear backend in leader mode): it must count
// exactly in Θ(n) rounds on static, random and dynamic schedules.
func TestNonCongestedCountsCorrectly(t *testing.T) {
	tests := []struct {
		name string
		n    int
		mk   func(n int) dynnet.Schedule
	}{
		{name: "path", n: 6, mk: func(n int) dynnet.Schedule { return dynnet.NewStatic(dynnet.Path(n)) }},
		{name: "complete", n: 7, mk: func(n int) dynnet.Schedule { return dynnet.NewStatic(dynnet.Complete(n)) }},
		{name: "random", n: 8, mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.3, 4) }},
		{name: "rotating-star", n: 5, mk: func(n int) dynnet.Schedule { return dynnet.NewRotatingStar(n) }},
		{name: "shifting-path", n: 6, mk: func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) }},
		{name: "single", n: 1, mk: func(n int) dynnet.Schedule { return dynnet.NewStatic(dynnet.Complete(n)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inputs := make([]anondyn.Input, tt.n)
			inputs[0].Leader = true
			res, err := anondyn.RunNonCongested(tt.mk(tt.n), inputs, 0)
			if err != nil {
				t.Fatalf("RunNonCongested: %v", err)
			}
			if res.N != tt.n {
				t.Fatalf("counted %d, want %d", res.N, tt.n)
			}
			if res.Stats.Rounds > 4*tt.n+16 {
				t.Errorf("took %d rounds, expected Θ(n)", res.Stats.Rounds)
			}
			if res.Stats.MaxMessageBits <= 0 {
				t.Errorf("missing bit accounting: %+v", res.Stats)
			}
			t.Logf("n=%d rounds=%d maxBits=%d", tt.n, res.Stats.Rounds, res.Stats.MaxMessageBits)
		})
	}
}
