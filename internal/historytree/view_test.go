package historytree_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

func oracleTree(t *testing.T, n, rounds int, seed int64) *Run {
	t.Helper()
	inputs := make([]Input, n)
	inputs[0].Leader = true
	run, err := Build(dynnet.NewRandomConnected(n, 0.4, seed), inputs, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestExtractViewIsGeneralizedView(t *testing.T) {
	run := oracleTree(t, 7, 8, 3)
	for p := 0; p < 7; p++ {
		view, err := ExtractView(run.Tree, run.NodeOf[8][p])
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
		if err := view.Validate(); err != nil {
			t.Fatalf("process %d: invalid view: %v", p, err)
		}
		if err := IsGeneralizedView(run.Tree, view); err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
}

func TestExtractViewErrors(t *testing.T) {
	run := oracleTree(t, 4, 3, 1)
	if _, err := ExtractView(run.Tree); err == nil {
		t.Error("no targets must fail")
	}
	if _, err := ExtractView(run.Tree, nil); err == nil {
		t.Error("nil target must fail")
	}
}

func TestViewContainsCausalPast(t *testing.T) {
	// In a connected network, the view of any process at round t ≥ n-1
	// must contain ALL level-0 classes: everyone's input influences
	// everyone within n-1 rounds.
	n := 6
	run := oracleTree(t, n, n, 9)
	for p := 0; p < n; p++ {
		view, err := ExtractView(run.Tree, run.NodeOf[n][p])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(view.Level(0)), len(run.Tree.Level(0)); got != want {
			t.Fatalf("process %d view has %d level-0 classes, want %d", p, got, want)
		}
	}
}

func TestUnionOfAllViewsIsWholeTree(t *testing.T) {
	run := oracleTree(t, 5, 6, 11)
	targets := make([]*Node, 5)
	copy(targets, run.NodeOf[6])
	all, err := ExtractView(run.Tree, targets...)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumNodes() != run.Tree.NumNodes() {
		t.Fatalf("union view has %d nodes, tree has %d", all.NumNodes(), run.Tree.NumNodes())
	}
	if !oracle.Isomorphic(all, run.Tree) {
		t.Fatal("union of all views should equal the tree")
	}
}

func TestIsGeneralizedViewDetectsViolations(t *testing.T) {
	run := oracleTree(t, 5, 4, 2)
	view, err := ExtractView(run.Tree, run.NodeOf[4][0])
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: change a red multiplicity.
	for l := 1; l <= view.Depth(); l++ {
		for _, v := range view.Level(l) {
			if len(v.Red) > 0 {
				v.Red[0].Mult++
				if err := IsGeneralizedView(run.Tree, view); err == nil {
					t.Fatal("tampered multiplicity not detected")
				}
				v.Red[0].Mult--
				break
			}
		}
	}
}

func TestIsomorphismProperties(t *testing.T) {
	// Same schedule and inputs → isomorphic trees even with different node
	// IDs (the oracle assigns IDs in discovery order; rebuilt trees match).
	a := oracleTree(t, 6, 5, 21).Tree
	b := oracleTree(t, 6, 5, 21).Tree
	if !oracle.Isomorphic(a, b) {
		t.Fatal("identical builds must be isomorphic")
	}
	// Different seeds generically give different trees.
	c := oracleTree(t, 6, 5, 22).Tree
	if oracle.Isomorphic(a, c) {
		t.Log("different schedules produced isomorphic trees (possible, rare)")
	}
	// A truncated tree is not isomorphic to the full one.
	d := a.Clone()
	d.TruncateLevels(3)
	if oracle.Isomorphic(a, d) {
		t.Fatal("truncated tree reported isomorphic")
	}
}

func TestIsomorphismIgnoresIDs(t *testing.T) {
	// Build the same structure with different IDs.
	mk := func(base int) *Tree {
		tr := New()
		a, _ := tr.AddChild(base, tr.Root(), Input{Leader: true})
		b, _ := tr.AddChild(base+1, tr.Root(), Input{})
		c, _ := tr.AddChild(base+2, a, Input{})
		if err := tr.AddRed(c, b, 2); err != nil {
			panic(err)
		}
		return tr
	}
	if !oracle.Isomorphic(mk(0), mk(100)) {
		t.Fatal("isomorphism must ignore node IDs")
	}
}

func TestIsomorphismDistinguishesInputs(t *testing.T) {
	mk := func(in Input) *Tree {
		tr := New()
		if _, err := tr.AddChild(0, tr.Root(), in); err != nil {
			panic(err)
		}
		return tr
	}
	if oracle.Isomorphic(mk(Input{Value: 1}), mk(Input{Value: 2})) {
		t.Fatal("different inputs must not be isomorphic")
	}
	if oracle.Isomorphic(mk(Input{Leader: true}), mk(Input{})) {
		t.Fatal("leader flag is structural")
	}
}

func TestOraclePartitionProperty(t *testing.T) {
	// Property: at every level of an oracle tree, cardinalities are
	// positive and sum to n; children partition parents; every process's
	// node chain is consistent.
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := 2 + int(nRaw%8)
		rounds := 1 + int(rRaw%8)
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]Input, n)
		for i := range inputs {
			inputs[i].Value = int64(rng.Intn(3))
		}
		run, err := Build(dynnet.NewRandomConnected(n, rng.Float64(), seed), inputs, rounds)
		if err != nil {
			return false
		}
		for l := 0; l <= run.Tree.Depth(); l++ {
			total := 0
			for _, v := range run.Tree.Level(l) {
				if run.Card[v.ID] <= 0 {
					return false
				}
				total += run.Card[v.ID]
			}
			if total != n {
				return false
			}
		}
		for r := 1; r <= rounds; r++ {
			for p := 0; p < n; p++ {
				if run.NodeOf[r][p].Parent != run.NodeOf[r-1][p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRedEdgesMatchGraph(t *testing.T) {
	// The red edges at level t+1 must match the schedule's round-(t+1)
	// multigraph exactly: process p's node has red mult from class C equal
	// to the number of links p shares with members of C.
	n, rounds := 6, 5
	s := dynnet.NewRandomConnected(n, 0.5, 33)
	inputs := make([]Input, n)
	inputs[0].Leader = true
	run, err := Build(s, inputs, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		g := s.Graph(r)
		for p := 0; p < n; p++ {
			want := make(map[int]int)
			for nb, m := range oracle.Neighbors(g, p) {
				want[run.NodeOf[r-1][nb].ID] += m
			}
			node := run.NodeOf[r][p]
			got := make(map[int]int)
			for _, e := range node.Red {
				got[e.Src.ID] = e.Mult
			}
			if len(got) != len(want) {
				t.Fatalf("round %d process %d: red %v, want %v", r, p, got, want)
			}
			for id, m := range want {
				if got[id] != m {
					t.Fatalf("round %d process %d: red from %d = %d, want %d", r, p, id, got[id], m)
				}
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(dynnet.NewStatic(dynnet.Path(3)), make([]Input, 2), 1); err == nil {
		t.Error("input count mismatch must fail")
	}
	if _, err := Build(dynnet.NewStatic(dynnet.Path(3)), make([]Input, 3), -1); err == nil {
		t.Error("negative rounds must fail")
	}
	run, err := Build(dynnet.NewStatic(dynnet.Path(3)), make([]Input, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Tree.Depth() != 0 {
		t.Error("zero rounds should still build level 0")
	}
}

// ExtractView returns the generalized view of the given target nodes: the
// subgraph of t spanned by all shortest root-to-target paths, using black
// and red edges indifferently (Section 2 of the paper). Since every edge of
// a history tree connects adjacent levels, this is the closure of the
// targets under parents and red-edge sources.
//
// The result is a fresh Tree whose nodes keep the IDs of the originals.
// The view of a single process at round t is ExtractView(tree, node) for
// the node representing it at level t.
func ExtractView(t *Tree, targets ...*Node) (*Tree, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("historytree: no view targets")
	}
	include := make(map[*Node]bool)
	stack := make([]*Node, 0, len(targets))
	for _, v := range targets {
		if v == nil {
			return nil, fmt.Errorf("historytree: nil view target")
		}
		if !include[v] {
			include[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.Parent != nil && !include[v.Parent] {
			include[v.Parent] = true
			stack = append(stack, v.Parent)
		}
		for _, e := range v.Red {
			if !include[e.Src] {
				include[e.Src] = true
				stack = append(stack, e.Src)
			}
		}
	}

	out := New()
	for l := 0; l <= t.Depth(); l++ {
		for _, v := range t.Level(l) {
			if !include[v] {
				continue
			}
			parent := out.NodeByID(v.Parent.ID)
			if parent == nil {
				return nil, fmt.Errorf("historytree: view closure missed parent of node %d", v.ID)
			}
			nv, err := out.AddChild(v.ID, parent, v.Input)
			if err != nil {
				return nil, err
			}
			for _, e := range v.Red {
				src := out.NodeByID(e.Src.ID)
				if src == nil {
					return nil, fmt.Errorf("historytree: view closure missed red source of node %d", v.ID)
				}
				if err := out.AddRed(nv, src, e.Mult); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// IsGeneralizedView reports whether sub (a tree whose node IDs are a subset
// of t's) is a generalized view of t: every node of sub exists in t with
// the same parent and red edges, and sub is closed under parents and red
// sources.
func IsGeneralizedView(t, sub *Tree) error {
	for l := 0; l <= sub.Depth(); l++ {
		for _, v := range sub.Level(l) {
			orig := t.NodeByID(v.ID)
			if orig == nil {
				return fmt.Errorf("historytree: node %d not in base tree", v.ID)
			}
			if orig.Level != v.Level {
				return fmt.Errorf("historytree: node %d at level %d vs %d", v.ID, v.Level, orig.Level)
			}
			if orig.Parent.ID != v.Parent.ID {
				return fmt.Errorf("historytree: node %d parent mismatch", v.ID)
			}
			if len(orig.Red) != len(v.Red) {
				return fmt.Errorf("historytree: node %d has %d red edges in view, %d in base",
					v.ID, len(v.Red), len(orig.Red))
			}
			for _, e := range v.Red {
				if orig.RedMult(t.NodeByID(e.Src.ID)) != e.Mult {
					return fmt.Errorf("historytree: node %d red edge to %d mismatch", v.ID, e.Src.ID)
				}
			}
		}
	}
	return nil
}
