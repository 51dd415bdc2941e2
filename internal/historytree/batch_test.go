package historytree_test

import (
	"testing"
	"testing/quick"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

// batch_test.go pins the batched SoA refinement pass (batch.go) against the
// witness refiner (build.go refine) under the reference_test.go discipline:
// not just isomorphic trees but byte-identical CanonicalForm, identical node
// IDs (creation order), identical NodeOf assignments, and identical
// cardinalities.

// requireSameRun asserts the two builds are indistinguishable in every
// public dimension: canonical form bytes, per-level node IDs, red-edge
// structure, process-to-node assignments, and cardinalities.
func requireSameRun(t *testing.T, got, want *Run) {
	t.Helper()
	if g, w := oracle.CanonicalForm(got.Tree), oracle.CanonicalForm(want.Tree); g != w {
		t.Fatalf("CanonicalForm mismatch:\n got %q\nwant %q", g, w)
	}
	requireSameLevels(t, got.Tree, want.Tree)
	if len(got.NodeOf) != len(want.NodeOf) {
		t.Fatalf("NodeOf rows: got %d, want %d", len(got.NodeOf), len(want.NodeOf))
	}
	for r := range got.NodeOf {
		for p := range got.NodeOf[r] {
			if g, w := got.NodeOf[r][p].ID, want.NodeOf[r][p].ID; g != w {
				t.Fatalf("NodeOf[%d][%d] = %d, want %d", r, p, g, w)
			}
		}
	}
	if len(got.Card) != len(want.Card) {
		t.Fatalf("Card size: got %d, want %d", len(got.Card), len(want.Card))
	}
	for id, c := range want.Card {
		if got.Card[id] != c {
			t.Fatalf("Card[%d] = %d, want %d", id, got.Card[id], c)
		}
	}
}

// requireSameLevels compares the structure of two trees level by level:
// node IDs in level order, parent IDs, and the red edge lists (source ID
// and multiplicity, insertion order included).
func requireSameLevels(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Depth() != want.Depth() {
		t.Fatalf("depth: got %d, want %d", got.Depth(), want.Depth())
	}
	for l := 0; l <= got.Depth(); l++ {
		gl, wl := got.Level(l), want.Level(l)
		if len(gl) != len(wl) {
			t.Fatalf("level %d size: got %d, want %d", l, len(gl), len(wl))
		}
		for i := range gl {
			if gl[i].ID != wl[i].ID {
				t.Fatalf("level %d node %d: ID %d, want %d", l, i, gl[i].ID, wl[i].ID)
			}
			gp, wp := gl[i].Parent, wl[i].Parent
			if (gp == nil) != (wp == nil) || (gp != nil && gp.ID != wp.ID) {
				t.Fatalf("level %d node %d: parent mismatch", l, i)
			}
			if len(gl[i].Red) != len(wl[i].Red) {
				t.Fatalf("level %d node %d: %d red edges, want %d", l, i, len(gl[i].Red), len(wl[i].Red))
			}
			for j := range gl[i].Red {
				ge, we := gl[i].Red[j], wl[i].Red[j]
				if ge.Src.ID != we.Src.ID || ge.Mult != we.Mult {
					t.Fatalf("level %d node %d red %d: (%d,%d), want (%d,%d)",
						l, i, j, ge.Src.ID, ge.Mult, we.Src.ID, we.Mult)
				}
			}
		}
	}
}

// TestQuickBatchedMatchesWitness is the batched-vs-witness quick suite:
// random connected schedules, random inputs, byte-identical runs.
func TestQuickBatchedMatchesWitness(t *testing.T) {
	property := func(nRaw, roundsRaw, pRaw uint8, seed int64) bool {
		s, inputs, rounds := quickParams(nRaw, roundsRaw, pRaw, seed)
		got, err := Build(s, inputs, rounds)
		if err != nil {
			t.Logf("batched Build: %v", err)
			return false
		}
		want, err := WitnessBuild(s, inputs, rounds)
		if err != nil {
			t.Logf("witness Build: %v", err)
			return false
		}
		if err := got.Tree.Validate(); err != nil {
			t.Logf("batched tree Validate: %v", err)
			return false
		}
		requireSameRun(t, got, want)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedMatchesWitnessTopologies covers the structured schedules the
// quick suite's random generator never emits.
func TestBatchedMatchesWitnessTopologies(t *testing.T) {
	cases := []struct {
		name   string
		s      dynnet.Schedule
		rounds int
	}{
		{"static-path", dynnet.NewStatic(dynnet.Path(9)), 18},
		{"static-complete", dynnet.NewStatic(dynnet.Complete(12)), 10},
		{"static-cycle", dynnet.NewStatic(dynnet.Cycle(10)), 15},
		{"rotating-star", dynnet.NewRotatingStar(8), 16},
		{"single", dynnet.NewStatic(dynnet.Complete(1)), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.s.N()
			inputs := make([]Input, n)
			inputs[0].Leader = true
			for i := range inputs {
				inputs[i].Value = int64(i % 3)
			}
			got, err := Build(tc.s, inputs, tc.rounds)
			if err != nil {
				t.Fatal(err)
			}
			want, err := WitnessBuild(tc.s, inputs, tc.rounds)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, got, want)
		})
	}
}

// TestBatchedWideMultFallback drives multiplicities past the packed 32-bit
// representation: the batched pass must detect the overflow and delegate the
// round to the witness, still producing an identical run. Both guards are
// exercised — a single link beyond MaxPackedMult, and moderate links whose
// per-span merge sum crosses 2^32.
func TestBatchedWideMultFallback(t *testing.T) {
	t.Run("single-link", func(t *testing.T) {
		g := dynnet.NewMultigraph(4)
		g.MustAddLink(0, 1, MaxPackedMult+7)
		g.MustAddLink(1, 2, 3)
		g.MustAddLink(2, 3, 1)
		requireWideFallback(t, g)
	})
	t.Run("merge-sum", func(t *testing.T) {
		// Three parallel class-equal sources each below the single-link
		// bound, summing past 32 bits after the merge.
		g := dynnet.NewMultigraph(5)
		g.MustAddLink(0, 1, MaxPackedMult-1)
		g.MustAddLink(0, 2, MaxPackedMult-1)
		g.MustAddLink(0, 3, MaxPackedMult-1)
		g.MustAddLink(0, 4, MaxPackedMult-1)
		g.MustAddLink(1, 2, 1)
		g.MustAddLink(3, 4, 1)
		requireWideFallback(t, g)
	})
}

func requireWideFallback(t *testing.T, g *dynnet.Multigraph) {
	t.Helper()
	s := dynnet.NewStatic(g)
	inputs := make([]Input, g.N())
	inputs[0].Leader = true
	got, err := Build(s, inputs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := WitnessBuild(s, inputs, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, got, want)
}
