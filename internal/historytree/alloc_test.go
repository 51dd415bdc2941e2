package historytree

import (
	"testing"

	"anondyn/internal/dynnet"
)

// Allocation-regression gates for the arena/interning rewrite. The bounds
// are deliberately loose (≈2× the measured steady state) so they catch a
// return to per-process-per-round map and string churn — the seed spent n
// observation maps plus a serialized signature per process per round, two
// orders of magnitude above these limits — without flaking on allocator
// noise or Go-version drift.

// buildWarm constructs a tree `warmRounds` deep with a shared refiner, so a
// subsequent refine call measures the steady state, not first-growth.
func buildWarm(t *testing.T, n, warmRounds int) (*Tree, *refiner, *dynnet.Multigraph, []*Node, int, map[int]int) {
	t.Helper()
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	tree := New()
	nextID := 0
	card := map[int]int{RootID: n}
	parent, err := tree.AddChild(nextID, tree.Root(), Input{Leader: true})
	if err != nil {
		t.Fatal(err)
	}
	nextID++
	card[parent.ID] = n
	cur := make([]*Node, n)
	for p := range cur {
		cur[p] = parent
	}
	ref := newRefiner(n)
	for round := 1; round <= warmRounds; round++ {
		next, err := ref.refine(tree, s.Graph(round), cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return tree, ref, s.Graph(warmRounds + 1), cur, nextID, card
}

func TestRefineRoundAllocs(t *testing.T) {
	tree, ref, g, cur, nextID, card := buildWarm(t, 8, 16)
	allocs := testing.AllocsPerRun(64, func() {
		next, err := ref.refine(tree, g, cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	})
	// Steady state: the returned level slice, plus amortized arena-chunk
	// and table-bucket growth. The seed's refine allocated n maps and n
	// signature strings per call (≥ 3n+1 ≈ 25 here) before any grouping.
	if allocs > 8 {
		t.Fatalf("refine allocated %.1f objects per round, want ≤ 8", allocs)
	}
}

// TestBatchedRefineRoundAllocs gates the batched SoA pass at the same bound
// as the witness (≤ 8), though its measured steady state is 1 object per
// round — the returned level slice; the arena, spans, interning table, and
// group histogram are all flat reused slices.
func TestBatchedRefineRoundAllocs(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	tree := New()
	nextID := 0
	card := map[int]int{RootID: n}
	parent, err := tree.AddChild(nextID, tree.Root(), Input{Leader: true})
	if err != nil {
		t.Fatal(err)
	}
	nextID++
	card[parent.ID] = n
	cur := make([]*Node, n)
	for p := range cur {
		cur[p] = parent
	}
	br := newBatchRefiner(n)
	for round := 1; round <= 16; round++ {
		next, err := br.refine(tree, s.Graph(round), cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	g := s.Graph(17)
	allocs := testing.AllocsPerRun(64, func() {
		next, err := br.refine(tree, g, cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	})
	if allocs > 8 {
		t.Fatalf("batched refine allocated %.1f objects per round, want ≤ 8", allocs)
	}
}

// TestModElimSteadyRoundAllocs is the PR 7 hot-loop gate: feeding a
// balance system into a warm battery — the work the modular backend does
// on every completed level — must not allocate at all. The row freelist,
// the per-prime residue storage, and the int64 conversion scratch are all
// recycled across reset, so the elimination's steady state is exactly
// zero objects per round.
func TestModElimSteadyRoundAllocs(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	inputs := make([]Input, n)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	sol, k, resolvable, err := prepSolution(run.Tree, run.Rounds)
	if err != nil || !resolvable {
		t.Fatalf("prep: resolvable=%v err=%v", resolvable, err)
	}
	defer sol.release()
	var rows [][]int64
	for l := 0; l < run.Rounds; l++ {
		for _, pair := range balancePairs(run.Tree, l) {
			if sol.fillRow(pair) {
				rows = append(rows, append([]int64(nil), sol.row...))
			}
		}
	}
	if len(rows) < k {
		t.Fatalf("only %d balance rows for %d columns", len(rows), k)
	}
	e := newModElim(k, 3)
	feed := func() {
		for _, r := range rows {
			e.addRow(r)
		}
	}
	feed() // warm: grows rows, freelists, scratch
	allocs := testing.AllocsPerRun(32, func() {
		e.reset(k)
		feed()
	})
	if allocs > 0 {
		t.Fatalf("warm modular elimination allocated %.1f objects per pass, want 0", allocs)
	}
}

// TestSolverModularResolveAllocs bounds the full incremental re-query on
// an already-consumed tree: battery growth is over, so a CountAt at the
// frontier pays only for the CRT lift, the rational ray, and the result
// map — O(n) objects, two orders of magnitude below the big.Int backend's
// per-query elimination churn.
func TestSolverModularResolveAllocs(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	inputs := make([]Input, n)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver()
	res, err := solver.CountAt(run.Tree, run.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Known {
		t.Fatalf("count unresolved after %d levels", run.Rounds)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := solver.CountAt(run.Tree, run.Rounds); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ≈ 170 on this tree (ray reconstruction + weights + result
	// map); the bound is ~2× that. The battery itself must not grow —
	// growth re-replays the whole system and would blow far past this.
	if allocs > 384 {
		t.Fatalf("steady-state modular CountAt allocated %.1f objects, want ≤ 384", allocs)
	}
}
