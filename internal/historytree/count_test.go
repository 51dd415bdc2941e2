package historytree_test

import (
	"math/rand"
	"testing"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

// countAt runs Count with increasing complete levels and returns the first
// level at which the answer is known, or -1.
func countAt(t *testing.T, tree *Tree, maxLevel int) (CountResult, int) {
	t.Helper()
	for l := 0; l <= maxLevel; l++ {
		res, err := Count(tree, l)
		if err != nil {
			t.Fatalf("Count at level %d: %v", l, err)
		}
		if res.Known {
			return res, l
		}
	}
	return CountResult{}, -1
}

func TestCountStaticTopologies(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		graph func(n int) *dynnet.Multigraph
	}{
		{name: "path", n: 6, graph: dynnet.Path},
		{name: "cycle", n: 7, graph: dynnet.Cycle},
		{name: "complete", n: 8, graph: dynnet.Complete},
		{name: "star", n: 9, graph: func(n int) *dynnet.Multigraph { return dynnet.Star(n, 0) }},
		{name: "single", n: 1, graph: dynnet.Complete},
		{name: "pair", n: 2, graph: dynnet.Path},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := dynnet.NewStatic(tt.graph(tt.n))
			rounds := 3*tt.n + 2
			run := BuildTree(t, s, LeaderInputs(tt.n), rounds)
			res, level := countAt(t, run.Tree, rounds)
			if level < 0 {
				t.Fatalf("count never resolved within %d levels", rounds)
			}
			if res.N != tt.n {
				t.Fatalf("got n=%d, want %d (resolved at level %d)", res.N, tt.n, level)
			}
			if level > 3*tt.n {
				t.Errorf("resolved only at level %d > 3n=%d", level, 3*tt.n)
			}
		})
	}
}

func TestCountDynamicSchedules(t *testing.T) {
	tests := []struct {
		name string
		mk   func(n int) dynnet.Schedule
	}{
		{name: "random-sparse", mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.1, 1) }},
		{name: "random-dense", mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.7, 2) }},
		{name: "rotating-star", mk: func(n int) dynnet.Schedule { return dynnet.NewRotatingStar(n) }},
		{name: "shifting-path", mk: func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) }},
		{name: "bottleneck", mk: func(n int) dynnet.Schedule { return dynnet.NewBottleneck(n) }},
	}
	for _, tt := range tests {
		for _, n := range []int{3, 5, 8} {
			s := tt.mk(n)
			rounds := 3*n + 2
			run := BuildTree(t, s, LeaderInputs(n), rounds)
			res, level := countAt(t, run.Tree, rounds)
			if level < 0 {
				t.Fatalf("%s n=%d: count never resolved within %d levels", tt.name, n, rounds)
			}
			if res.N != n {
				t.Fatalf("%s n=%d: got %d (at level %d)", tt.name, n, res.N, level)
			}
		}
	}
}

func TestCountGeneralizedMultiset(t *testing.T) {
	// 2 leaders?? No: exactly one leader, inputs A=3, B=2, C=1 (leader has A).
	inputs := []Input{
		{Leader: true, Value: 10},
		{Value: 20}, {Value: 20},
		{Value: 30}, {Value: 30}, {Value: 30},
	}
	n := len(inputs)
	s := dynnet.NewRandomConnected(n, 0.4, 7)
	run := BuildTree(t, s, inputs, 3*n+2)
	res, level := countAt(t, run.Tree, 3*n+2)
	if level < 0 {
		t.Fatal("count never resolved")
	}
	want := map[Input]int{
		{Leader: true, Value: 10}: 1,
		{Value: 20}:               2,
		{Value: 30}:               3,
	}
	if res.N != n {
		t.Fatalf("n=%d, want %d", res.N, n)
	}
	for in, c := range want {
		if res.Multiset[in] != c {
			t.Errorf("multiset[%s]=%d, want %d", in, res.Multiset[in], c)
		}
	}
}

func TestFrequenciesLeaderless(t *testing.T) {
	// 4 processes with input 1, 2 with input 2: frequencies 2/3 and 1/3.
	inputs := []Input{
		{Value: 1}, {Value: 1}, {Value: 1}, {Value: 1},
		{Value: 2}, {Value: 2},
	}
	n := len(inputs)
	s := dynnet.NewRandomConnected(n, 0.3, 3)
	run := BuildTree(t, s, inputs, 3*n+2)
	var res FrequencyResult
	resolved := false
	for l := 0; l <= 3*n+2 && !resolved; l++ {
		r, err := Frequencies(run.Tree, l)
		if err != nil {
			t.Fatalf("Frequencies: %v", err)
		}
		if r.Known {
			res, resolved = r, true
		}
	}
	if !resolved {
		t.Fatal("frequencies never resolved")
	}
	if res.MinSize != 3 {
		t.Fatalf("MinSize=%d, want 3", res.MinSize)
	}
	if res.Shares[Input{Value: 1}] != 2 || res.Shares[Input{Value: 2}] != 1 {
		t.Fatalf("shares=%v, want {1:2, 2:1}", res.Shares)
	}
}

func TestFrequenciesSymmetricNetworkStaysUnknownOrScaled(t *testing.T) {
	// A complete graph with identical inputs: all processes forever
	// indistinguishable; the frequency answer is the trivial 1/1 and n is
	// not recoverable (MinSize must be 1, regardless of n).
	for _, n := range []int{2, 5} {
		s := dynnet.NewStatic(dynnet.Complete(n))
		inputs := make([]Input, n)
		run := BuildTree(t, s, inputs, 6)
		res, err := Frequencies(run.Tree, 6)
		if err != nil {
			t.Fatalf("Frequencies: %v", err)
		}
		if !res.Known {
			t.Fatalf("n=%d: expected trivially known frequencies", n)
		}
		if res.MinSize != 1 {
			t.Errorf("n=%d: MinSize=%d, want 1 (leaderless cannot count)", n, res.MinSize)
		}
	}
}

func TestCheckWeightsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		seed := rng.Int63()
		s := dynnet.NewRandomConnected(n, rng.Float64(), seed)
		inputs := make([]Input, n)
		for i := range inputs {
			inputs[i].Value = int64(rng.Intn(3))
		}
		inputs[0].Leader = true
		rounds := 2 * n
		run, err := Build(s, inputs, rounds)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := oracle.CheckWeights(run.Tree, rounds, run.Card); err != nil {
			t.Fatalf("trial %d (n=%d seed=%d): %v", trial, n, seed, err)
		}
	}
}

func TestCountSoundnessNeverWrong(t *testing.T) {
	// Whenever Count reports Known at ANY level, the answer must be the
	// truth — soundness must not depend on reaching 3n levels.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(9)
		s := dynnet.NewRandomConnected(n, rng.Float64(), rng.Int63())
		rounds := 3*n + 2
		run, err := Build(s, LeaderInputs(n), rounds)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for l := 0; l <= rounds; l++ {
			res, err := Count(run.Tree, l)
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			if res.Known && res.N != n {
				t.Fatalf("trial %d: level %d reported n=%d, truth %d", trial, l, res.N, n)
			}
		}
	}
}

func TestCountUnknownOnShallowTree(t *testing.T) {
	// With zero complete levels and ≥2 classes the answer must be unknown.
	s := dynnet.NewStatic(dynnet.Path(4))
	run := BuildTree(t, s, LeaderInputs(4), 2)
	res, err := Count(run.Tree, 0)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if res.Known {
		t.Fatal("level 0 alone should not determine n=4")
	}
}

func TestCountErrorPaths(t *testing.T) {
	// Two leader classes is a malformed input.
	tr := New()
	if _, err := tr.AddChild(0, tr.Root(), Input{Leader: true, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddChild(1, tr.Root(), Input{Leader: true, Value: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(tr, 0); err == nil {
		t.Error("two leader classes must be rejected")
	}

	// completeLevels out of range.
	if _, err := Count(tr, 5); err == nil {
		t.Error("completeLevels beyond depth must be rejected")
	}
	if _, err := Count(tr, -1); err == nil {
		t.Error("negative completeLevels must be rejected")
	}
}

func TestCountNoLeaderRejected(t *testing.T) {
	tr := New()
	if _, err := tr.AddChild(0, tr.Root(), Input{Value: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(tr, 0); err == nil {
		t.Error("leaderless tree must be rejected by Count (use Frequencies)")
	}
}

func TestFrequenciesMultiValueRatios(t *testing.T) {
	// 9 processes with inputs 3:3:3 → shares 1:1:1, MinSize 3.
	inputs := make([]Input, 9)
	for i := range inputs {
		inputs[i].Value = int64(i % 3)
	}
	s := dynnet.NewRandomConnected(9, 0.4, 17)
	run := BuildTree(t, s, inputs, 29)
	for l := 0; l <= 29; l++ {
		res, err := Frequencies(run.Tree, l)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Known {
			continue
		}
		if res.MinSize != 3 {
			t.Fatalf("MinSize=%d, want 3", res.MinSize)
		}
		for v := int64(0); v < 3; v++ {
			if res.Shares[Input{Value: v}] != 1 {
				t.Fatalf("shares=%v", res.Shares)
			}
		}
		return
	}
	t.Fatal("frequencies never resolved")
}

func TestCheckWeightsDetectsViolations(t *testing.T) {
	s := dynnet.NewStatic(dynnet.Path(4))
	run := BuildTree(t, s, LeaderInputs(4), 4)
	// Corrupt one cardinality: partition sums must break.
	bad := make(map[int]int, len(run.Card))
	for k, v := range run.Card {
		bad[k] = v
	}
	for _, v := range run.Tree.Level(2) {
		bad[v.ID]++
		break
	}
	if err := oracle.CheckWeights(run.Tree, 4, bad); err == nil {
		t.Fatal("corrupted cardinalities not detected")
	}
	if err := oracle.CheckWeights(run.Tree, 99, run.Card); err == nil {
		t.Fatal("out-of-range completeLevels not detected")
	}
}
