package core

import (
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

func TestGeneralizedCountingMultiset(t *testing.T) {
	inputs := []historytree.Input{
		{Leader: true, Value: 7},
		{Value: 3}, {Value: 3}, {Value: 3},
		{Value: 9}, {Value: 9},
	}
	n := len(inputs)
	s := dynnet.NewRandomConnected(n, 0.4, 21)
	cfg := Config{Mode: ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 6}
	res, err := Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.N != n {
		t.Fatalf("n=%d, want %d", res.N, n)
	}
	want := map[historytree.Input]int{
		{Leader: true, Value: 7}: 1,
		{Value: 3}:               3,
		{Value: 9}:               2,
	}
	for in, c := range want {
		if res.Multiset[in] != c {
			t.Errorf("multiset[%s]=%d, want %d", in, res.Multiset[in], c)
		}
	}
	if len(res.Multiset) != len(want) {
		t.Errorf("multiset has %d classes, want %d: %v", len(res.Multiset), len(want), res.Multiset)
	}
}

func TestSimultaneousHalt(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		s := dynnet.NewRandomConnected(n, 0.3, int64(n))
		cfg := Config{Mode: ModeLeader, SimultaneousHalt: true, MaxLevels: 3*n + 6}
		res, err := Run(s, leaderInputs(n), cfg, RunOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.N != n {
			t.Fatalf("n=%d: counted %d", n, res.N)
		}
		// Run already verifies all processes output the same n at the same
		// round; double-check every process produced an output.
		if len(res.Outputs) != n {
			t.Fatalf("n=%d: %d outputs", n, len(res.Outputs))
		}
		for pid, oc := range res.Outputs {
			if oc.N != n {
				t.Errorf("process %d output %d", pid, oc.N)
			}
		}
	}
}

func TestLeaderlessFrequencies(t *testing.T) {
	inputs := []historytree.Input{
		{Value: 1}, {Value: 1}, {Value: 1}, {Value: 1},
		{Value: 2}, {Value: 2},
	}
	n := len(inputs)
	// Dynamic diameter of a connected n-process network is < n.
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	cfg := Config{Mode: ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 6}
	res, err := Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := res.Frequencies
	if f == nil || !f.Known {
		t.Fatal("no frequency result")
	}
	if f.MinSize != 3 {
		t.Fatalf("MinSize=%d, want 3", f.MinSize)
	}
	if f.Shares[historytree.Input{Value: 1}] != 2 || f.Shares[historytree.Input{Value: 2}] != 1 {
		t.Fatalf("shares=%v", f.Shares)
	}
}

func TestUnionConnected(t *testing.T) {
	for _, blockT := range []int{1, 2, 4} {
		for _, n := range []int{4, 6} {
			inner := dynnet.NewRandomConnected(n, 0.5, 13)
			var s dynnet.Schedule = inner
			if blockT > 1 {
				uc, err := dynnet.NewUnionConnected(inner, blockT)
				if err != nil {
					t.Fatal(err)
				}
				s = uc
			}
			cfg := Config{Mode: ModeLeader, BlockT: blockT, MaxLevels: 3*n + 6}
			res, err := Run(s, leaderInputs(n), cfg, RunOptions{})
			if err != nil {
				t.Fatalf("T=%d n=%d: %v", blockT, n, err)
			}
			if res.N != n {
				t.Fatalf("T=%d n=%d: counted %d", blockT, n, res.N)
			}
			t.Logf("T=%d n=%d rounds=%d", blockT, n, res.Stats.Rounds)
		}
	}
}

func TestLeaderlessUniformInputs(t *testing.T) {
	// All inputs equal and no leader: the only computable answer is the
	// trivial frequency 1 with MinSize 1.
	n := 5
	s := dynnet.NewStatic(dynnet.Cycle(n))
	inputs := make([]historytree.Input, n)
	cfg := Config{Mode: ModeLeaderless, DiamBound: n, MaxLevels: 10}
	res, err := Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Frequencies.MinSize != 1 {
		t.Fatalf("MinSize=%d, want 1", res.Frequencies.MinSize)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		inputs  []historytree.Input
		wantErr bool
	}{
		{
			name:   "leader-ok",
			cfg:    Config{Mode: ModeLeader},
			inputs: leaderInputs(3),
		},
		{
			name:    "leader-missing",
			cfg:     Config{Mode: ModeLeader},
			inputs:  make([]historytree.Input, 3),
			wantErr: true,
		},
		{
			name:    "two-leaders",
			cfg:     Config{Mode: ModeLeader},
			inputs:  []historytree.Input{{Leader: true}, {Leader: true}},
			wantErr: true,
		},
		{
			name:    "leaderless-with-leader",
			cfg:     Config{Mode: ModeLeaderless, DiamBound: 3},
			inputs:  leaderInputs(3),
			wantErr: true,
		},
		{
			name:    "leaderless-no-diam",
			cfg:     Config{Mode: ModeLeaderless},
			inputs:  make([]historytree.Input, 3),
			wantErr: true,
		},
		{
			name:    "leaderless-no-processes",
			cfg:     Config{Mode: ModeLeaderless, DiamBound: 3},
			inputs:  nil,
			wantErr: true,
		},
		{
			name:   "leaderless-ok",
			cfg:    Config{Mode: ModeLeaderless, DiamBound: 3},
			inputs: make([]historytree.Input, 3),
		},
		{
			name:    "unknown-mode",
			cfg:     Config{},
			inputs:  leaderInputs(2),
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate(tt.inputs)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}
