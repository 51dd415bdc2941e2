package dynnet_test

import (
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	. "anondyn/internal/dynnet"
	"anondyn/internal/oracle"
)

func TestStaticSchedule(t *testing.T) {
	g := Path(4)
	s := NewStatic(g)
	if s.N() != 4 {
		t.Fatalf("N=%d", s.N())
	}
	for _, round := range []int{1, 2, 100} {
		if got := s.Graph(round).String(); got != g.String() {
			t.Fatalf("round %d: %s != %s", round, got, g)
		}
	}
	// Mutating the returned graph must not affect the schedule.
	s.Graph(1).MustAddLink(0, 3, 1)
	if oracle.LinkCount(s.Graph(1)) != oracle.LinkCount(g) {
		t.Fatal("schedule state leaked through Graph()")
	}
}

// TestStaticGraphInto pins the allocation-free path: GraphInto must match
// Graph exactly (even into a buffer that held a different graph), and a
// warm buffer refill must not allocate.
func TestStaticGraphInto(t *testing.T) {
	s := NewStatic(Cycle(6))
	buf := NewMultigraph(6)
	buf.MustAddLink(0, 5, 3) // stale content GraphInto must clear
	s.GraphInto(1, buf)
	if !sameGraph(s.Graph(1), buf) {
		t.Fatalf("GraphInto diverged from Graph: %s != %s", buf, s.Graph(1))
	}
	if allocs := testing.AllocsPerRun(100, func() { s.GraphInto(2, buf) }); allocs != 0 {
		t.Fatalf("warm GraphInto allocated %.1f times per call", allocs)
	}
}

func TestSequenceSchedule(t *testing.T) {
	a, b := Path(3), Cycle(3)
	s, err := NewSequence(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph(1).String() != a.String() {
		t.Error("round 1 should be first graph")
	}
	if s.Graph(2).String() != b.String() {
		t.Error("round 2 should be second graph")
	}
	if s.Graph(9).String() != b.String() {
		t.Error("later rounds should repeat the last graph")
	}
	if s.Graph(0).String() != a.String() {
		t.Error("round ≤ 1 clamps to the first graph")
	}

	if _, err := NewSequence(); err == nil {
		t.Error("empty sequence must fail")
	}
	if _, err := NewSequence(Path(3), Path(4)); err == nil {
		t.Error("mismatched sizes must fail")
	}
}

func TestRandomConnectedScheduleDeterministicPerRound(t *testing.T) {
	s := NewRandomConnected(8, 0.4, 99)
	for _, round := range []int{1, 5, 42} {
		a := s.Graph(round).String()
		b := s.Graph(round).String()
		if a != b {
			t.Fatalf("round %d not deterministic", round)
		}
		if !oracle.Connected(s.Graph(round)) {
			t.Fatalf("round %d graph disconnected", round)
		}
	}
	// Different rounds should (generically) differ.
	if s.Graph(1).String() == s.Graph(2).String() {
		t.Log("rounds 1 and 2 coincide (possible but unlikely)")
	}
}

// TestRandomConnectedScheduleBornCanonical pins the hot-loop generator's
// merge construction: the graph it emits must be exactly the graph obtained
// by replaying the same PCG draws through plain AddLink calls, and its
// canonical link list must be strictly sorted with merged multiplicities.
func TestRandomConnectedScheduleBornCanonical(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		seed int64
	}{
		{2, 0, 1}, {5, 0.3, 7}, {8, 0.9, 99}, {12, 0.5, 3},
		// The mask planes with one word per row (n ≤ 64), with two and
		// with five. All must consume the identical PCG stream as the
		// plain replay below.
		{64, 0.3, 11}, {96, 0.3, 11}, {257, 0.05, 11},
	} {
		s := NewRandomConnected(tc.n, tc.p, tc.seed)
		for _, round := range []int{1, 2, 17} {
			g := s.Graph(round)

			rng := randv2.New(randv2.NewPCG(uint64(tc.seed), uint64(round)))
			ref := NewMultigraph(tc.n)
			perm := rng.Perm(tc.n)
			for i := 1; i < tc.n; i++ {
				ref.MustAddLink(perm[i], perm[rng.IntN(i)], 1)
			}
			for u := 0; u < tc.n; u++ {
				for v := u + 1; v < tc.n; v++ {
					if rng.Float64() < tc.p {
						ref.MustAddLink(u, v, 1)
					}
				}
			}
			if got, want := g.String(), ref.String(); got != want {
				t.Fatalf("n=%d p=%v seed=%d round %d: got %s, want %s",
					tc.n, tc.p, tc.seed, round, got, want)
			}

			links := g.CanonicalLinks()
			for i := 1; i < len(links); i++ {
				if CmpLinks(links[i-1], links[i]) >= 0 {
					t.Fatalf("n=%d round %d: links not strictly canonical at %d: %v",
						tc.n, round, i, links)
				}
			}
		}
	}
}

// TestRandomConnectedSparseMergeStream is the dedicated deep regression
// for the generator's mask planes across 5 mask words per row (n = 320):
// at a density high enough that many of the n−1 tree edges coincide with
// Bernoulli extras, the fold of the two planes must (a) consume exactly
// the rand/v2 stream the contract pins (replayed below through
// Perm/IntN/Float64 on a fresh PCG), (b) emit a strictly canonical link
// list with the coinciding pairs folded into multiplicity-2 links rather
// than duplicated, and (c) build the identical graph into dirty reused
// storage via GraphInto.
func TestRandomConnectedSparseMergeStream(t *testing.T) {
	checkMergeStream(t, 320, 0.5, 29)
}

// TestRandomConnectedDenseMergeStream is the same guard with two mask
// words per row (n = 96): a coinciding pair's multiplicity is its tree
// bit plus its Bernoulli bit.
func TestRandomConnectedDenseMergeStream(t *testing.T) {
	checkMergeStream(t, 96, 0.5, 29)
}

func checkMergeStream(t *testing.T, n int, p float64, seed int64) {
	t.Helper()
	s := NewRandomConnected(n, p, seed)
	dirty := NewMultigraph(3) // deliberately wrong size and stale contents
	dirty.MustAddLink(0, 2, 7)
	for _, round := range []int{1, 2, 17} {
		g := s.Graph(round)

		rng := randv2.New(randv2.NewPCG(uint64(seed), uint64(round)))
		ref := NewMultigraph(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			ref.MustAddLink(perm[i], perm[rng.IntN(i)], 1)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					ref.MustAddLink(u, v, 1)
				}
			}
		}
		if got, want := g.String(), ref.String(); got != want {
			t.Fatalf("n=%d round %d: generator diverged from the rand/v2 replay", n, round)
		}

		links := g.CanonicalLinks()
		merged := 0
		for i, l := range links {
			if i > 0 && CmpLinks(links[i-1], l) >= 0 {
				t.Fatalf("n=%d round %d: links not strictly canonical at %d: %v vs %v",
					n, round, i, links[i-1], l)
			}
			if l.Mult > 1 {
				merged++
			}
		}
		// At p = 0.5 roughly half the n−1 tree edges coincide with a
		// Bernoulli extra; a merge-free round means the fold is broken.
		if merged == 0 {
			t.Fatalf("round %d: no multiplicity merges at n=%d p=%v — the tree/Bernoulli fold is dead", round, n, p)
		}

		s.GraphInto(round, dirty)
		if got, want := dirty.String(), g.String(); got != want {
			t.Fatalf("n=%d round %d: GraphInto into dirty storage diverged from Graph", n, round)
		}
	}
}

func TestRotatingStarSchedule(t *testing.T) {
	s := NewRotatingStar(5)
	for round := 1; round <= 10; round++ {
		g := s.Graph(round)
		if !oracle.Connected(g) {
			t.Fatalf("round %d disconnected", round)
		}
		center := round % 5
		if got := oracle.Degree(g, center); got != 4 {
			t.Fatalf("round %d: center %d degree %d", round, center, got)
		}
	}
}

func TestShiftingPathSchedule(t *testing.T) {
	s := NewShiftingPath(6)
	for round := 1; round <= 8; round++ {
		g := s.Graph(round)
		if !oracle.Connected(g) {
			t.Fatalf("round %d disconnected", round)
		}
		if oracle.LinkCount(g) != 5 {
			t.Fatalf("round %d: %d links, want n-1", round, oracle.LinkCount(g))
		}
	}
	if !oracle.Connected(NewShiftingPath(1).Graph(1)) {
		t.Error("singleton shifting path")
	}
}

func TestBottleneckSchedule(t *testing.T) {
	s := NewBottleneck(8)
	for round := 1; round <= 6; round++ {
		if !oracle.Connected(s.Graph(round)) {
			t.Fatalf("round %d disconnected", round)
		}
	}
	// The bridge must rotate: the graphs of two consecutive rounds differ.
	if s.Graph(1).String() == s.Graph(2).String() {
		t.Error("bridge did not rotate")
	}
}

func TestUnionConnectedSchedule(t *testing.T) {
	inner := NewRandomConnected(7, 0.5, 3)
	for _, T := range []int{2, 3, 5} {
		s, err := NewUnionConnected(inner, T)
		if err != nil {
			t.Fatal(err)
		}
		// Single rounds are (generally) not connected, but every aligned
		// window of T rounds unions to a connected graph.
		for block := 0; block < 4; block++ {
			ok, err := oracle.UnionConnected(s, block*T+1, T)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("T=%d block %d: union not connected", T, block)
			}
		}
		// The union over a window must equal the inner round's graph.
		acc := s.Graph(1)
		for r := 2; r <= T; r++ {
			acc, err = acc.Union(s.Graph(r))
			if err != nil {
				t.Fatal(err)
			}
		}
		if acc.String() != inner.Graph(1).String() {
			t.Fatalf("T=%d: union of block != inner graph", T)
		}
	}
	if _, err := NewUnionConnected(inner, 0); err == nil {
		t.Error("T=0 must fail")
	}
}

func TestUnionConnectedWindowValidation(t *testing.T) {
	s := NewStatic(Path(3))
	if _, err := oracle.UnionConnected(s, 1, 0); err == nil {
		t.Fatal("window 0 must fail")
	}
	ok, err := oracle.UnionConnected(s, 1, 1)
	if err != nil || !ok {
		t.Fatalf("static path union: ok=%v err=%v", ok, err)
	}
}

func TestFuncSchedule(t *testing.T) {
	s := NewFunc(3, func(t int) *Multigraph {
		if t%2 == 0 {
			return Path(3)
		}
		return Cycle(3)
	})
	if s.N() != 3 {
		t.Fatalf("N=%d", s.N())
	}
	if oracle.LinkCount(s.Graph(1)) != 3 {
		t.Error("odd rounds should be cycles")
	}
	if oracle.LinkCount(s.Graph(2)) != 2 {
		t.Error("even rounds should be paths")
	}
}

func TestSchedulePureFunctionProperty(t *testing.T) {
	// Every generator must be a pure function of the round number.
	gens := map[string]Schedule{
		"random":        NewRandomConnected(6, 0.3, 7),
		"rotating-star": NewRotatingStar(6),
		"shifting-path": NewShiftingPath(6),
		"bottleneck":    NewBottleneck(6),
	}
	for name, s := range gens {
		f := func(round uint8) bool {
			r := 1 + int(round%50)
			return s.Graph(r).String() == s.Graph(r).String()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPermMatchesFillShuffle pins the stream-identity assumption behind the
// pooled scratch in randomConnectedV2: drawing a permutation by filling
// 0..n-1 and calling Shuffle consumes the random stream exactly like
// rng.Perm(n), so the scratch-buffer rewrite cannot perturb any recorded
// schedule. If a Go release ever changes Perm's definition, this fails
// before any golden schedule does.
func TestPermMatchesFillShuffle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 12, 33} {
		for seed := uint64(0); seed < 5; seed++ {
			a := randv2.New(randv2.NewPCG(seed, 99))
			b := randv2.New(randv2.NewPCG(seed, 99))
			want := a.Perm(n)
			got := make([]int, n)
			for i := range got {
				got[i] = i
			}
			b.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: fill+Shuffle %v != Perm %v", n, seed, got, want)
			}
			// Both generators must also be left in the same state.
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d seed=%d: generators diverged after permutation", n, seed)
			}
		}
	}
}

// TestRandomConnectedScheduleStableAcrossScratchReuse exercises the pooled
// scratch across interleaved graph sizes: two schedules of different n
// sharing the pool must still each be a pure function of t.
func TestRandomConnectedScheduleStableAcrossScratchReuse(t *testing.T) {
	big := NewRandomConnected(17, 0.4, 3)
	small := NewRandomConnected(5, 0.2, 4)
	wantBig := big.Graph(7).String()
	wantSmall := small.Graph(9).String()
	for i := 0; i < 50; i++ {
		if got := big.Graph(7).String(); got != wantBig {
			t.Fatalf("iteration %d: big graph drifted:\n%s\nwant:\n%s", i, got, wantBig)
		}
		if got := small.Graph(9).String(); got != wantSmall {
			t.Fatalf("iteration %d: small graph drifted", i)
		}
	}
}
