package historytree_test

import (
	"strings"
	"testing"

	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

// buildSmall returns a hand-built two-level tree:
//
//	root → {0: leader, 1: other}; level 1: {2 <-0 r:(0x2,1x1)}, {3 <-1 r:(0x1,1x2)}.
func buildSmall(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	n0, err := tr.AddChild(0, tr.Root(), Input{Leader: true})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := tr.AddChild(1, tr.Root(), Input{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := tr.AddChild(2, n0, Input{})
	if err != nil {
		t.Fatal(err)
	}
	n3, err := tr.AddChild(3, n1, Input{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		v, src *Node
		m      int
	}{{n2, n0, 2}, {n2, n1, 1}, {n3, n0, 1}, {n3, n1, 2}} {
		if err := tr.AddRed(e.v, e.src, e.m); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestTreeBasics(t *testing.T) {
	tr := buildSmall(t)
	if tr.Depth() != 1 {
		t.Fatalf("Depth=%d", tr.Depth())
	}
	if tr.NumNodes() != 5 {
		t.Fatalf("NumNodes=%d", tr.NumNodes())
	}
	if got := len(tr.Level(-1)); got != 1 {
		t.Fatalf("root level size %d", got)
	}
	if tr.Level(7) != nil {
		t.Fatal("absent level should be nil")
	}
	if tr.NodeByID(3).Parent.ID != 1 {
		t.Fatal("parent wiring broken")
	}
	if tr.NodeByID(2).RedMult(tr.NodeByID(1)) != 1 {
		t.Fatal("red mult lookup broken")
	}
	if tr.NodeByID(2).RedMult(tr.NodeByID(3)) != 0 {
		t.Fatal("absent red edge should be 0")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddChildErrors(t *testing.T) {
	tr := New()
	if _, err := tr.AddChild(0, nil, Input{}); err == nil {
		t.Error("nil parent must fail")
	}
	n0, _ := tr.AddChild(0, tr.Root(), Input{})
	if _, err := tr.AddChild(0, tr.Root(), Input{}); err == nil {
		t.Error("duplicate ID must fail")
	}
	// Level skipping: adding to a node two levels below the frontier.
	n1, _ := tr.AddChild(1, n0, Input{})
	_ = n1
	tr2 := New()
	r0, _ := tr2.AddChild(10, tr2.Root(), Input{})
	r1, _ := tr2.AddChild(11, r0, Input{})
	r2, _ := tr2.AddChild(12, r1, Input{})
	if r2.Level != 2 {
		t.Fatalf("level %d", r2.Level)
	}
}

func TestAddRedErrors(t *testing.T) {
	tr := buildSmall(t)
	n2 := tr.NodeByID(2)
	if err := tr.AddRed(n2, nil, 1); err == nil {
		t.Error("nil src must fail")
	}
	if err := tr.AddRed(n2, tr.NodeByID(3), 1); err == nil {
		t.Error("same-level red edge must fail")
	}
	if err := tr.AddRed(n2, tr.NodeByID(0), 0); err == nil {
		t.Error("zero multiplicity must fail")
	}
	// Accumulation.
	before := n2.RedMult(tr.NodeByID(0))
	if err := tr.AddRed(n2, tr.NodeByID(0), 3); err != nil {
		t.Fatal(err)
	}
	if n2.RedMult(tr.NodeByID(0)) != before+3 {
		t.Error("red multiplicity should accumulate")
	}
}

func TestTruncateLevels(t *testing.T) {
	tr := buildSmall(t)
	tr.TruncateLevels(1)
	if tr.Depth() != 0 {
		t.Fatalf("Depth=%d after truncate", tr.Depth())
	}
	if tr.NodeByID(2) != nil || tr.NodeByID(3) != nil {
		t.Fatal("truncated nodes still resolvable")
	}
	if len(tr.NodeByID(0).Children) != 0 {
		t.Fatal("dangling black edges after truncate")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Truncating beyond the depth is a no-op.
	tr.TruncateLevels(5)
	if tr.Depth() != 0 {
		t.Fatal("no-op truncate changed the tree")
	}
	// Rebuilding after truncation works.
	if _, err := tr.AddChild(2, tr.NodeByID(0), Input{}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildSmall(t)
	cp := tr.Clone()
	if !oracle.Isomorphic(tr, cp) {
		t.Fatal("clone not isomorphic")
	}
	cp.TruncateLevels(1)
	if tr.Depth() != 1 {
		t.Fatal("clone shares state")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRedEdgeCount(t *testing.T) {
	tr := buildSmall(t)
	if got := tr.RedEdgeCount(-1); got != 4 {
		t.Fatalf("RedEdgeCount=%d, want 4", got)
	}
	if got := tr.RedEdgeCount(0); got != 0 {
		t.Fatalf("RedEdgeCount(0)=%d, want 0", got)
	}
}

func TestRenderASCII(t *testing.T) {
	out := RenderASCII(buildSmall(t))
	for _, want := range []string{"L-1: [-1]", "in=L:0", "r:(0x2,1x1)", "[3 <-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderDOT(t *testing.T) {
	out := RenderDOT(buildSmall(t), "x")
	for _, want := range []string{"digraph", "n0 -> n2 [color=black]", `label="2"`, "color=red"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestLevelSizes(t *testing.T) {
	sizes := LevelSizes(buildSmall(t))
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("LevelSizes=%v", sizes)
	}
}
