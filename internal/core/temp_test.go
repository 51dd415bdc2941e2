package core

import "testing"

func TestTempVHTRoots(t *testing.T) {
	tv := newTempVHT([]int{3, 7})
	if tv.root(3) == nil || tv.root(3).id != 3 {
		t.Fatal("root 3 missing")
	}
	if tv.root(99) != nil {
		t.Fatal("unknown ID should have no root")
	}
}

func TestTempVHTChains(t *testing.T) {
	tv := newTempVHT([]int{0, 1})
	// 0 observes 1 (mult 1) → child 2; child 2 observes 0's class (mult 2)
	// → child 4.
	if _, err := tv.addChild(2, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tv.addChild(4, 2, 0, 2); err != nil {
		t.Fatal(err)
	}
	if got := tv.root(4).id; got != 0 {
		t.Fatalf("root of 4 is %d, want 0", got)
	}
	reds, err := tv.appendPathRedEdges(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []obs{{id2: 0, mult: 2}, {id2: 1, mult: 1}}
	if len(reds) != 2 || reds[0] != want[0] || reds[1] != want[1] {
		t.Fatalf("path red edges = %v, want %v", reds, want)
	}
	// Roots contribute no red edges.
	rootReds, err := tv.appendPathRedEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rootReds) != 0 {
		t.Fatalf("root path reds = %v", rootReds)
	}
}

func TestTempVHTAccumulatesRepeatedSources(t *testing.T) {
	tv := newTempVHT([]int{0})
	if _, err := tv.addChild(2, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tv.addChild(3, 2, 0, 2); err != nil {
		t.Fatal(err)
	}
	reds, err := tv.appendPathRedEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 1 || reds[0].id2 != 0 || reds[0].mult != 3 {
		t.Fatalf("accumulated path reds = %v, want [{0 3}]", reds)
	}
}

func TestTempVHTErrors(t *testing.T) {
	tv := newTempVHT([]int{0})
	if _, err := tv.addChild(2, 99, 0, 1); err == nil {
		t.Error("unknown parent must fail")
	}
	if _, err := tv.addChild(0, 0, 0, 1); err == nil {
		t.Error("duplicate ID must fail")
	}
	if _, err := tv.appendPathRedEdges(42, nil); err == nil {
		t.Error("unknown node must fail")
	}
}

func TestLevelGraphCycleDetection(t *testing.T) {
	lg := newLevelGraph([]int{1, 2, 3, 4})
	if err := lg.addEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := lg.addEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if !lg.connected(1, 3) {
		t.Error("1 and 3 should be connected")
	}
	if lg.connected(1, 4) {
		t.Error("4 should be isolated")
	}
	if !lg.hasEdge(2, 1) {
		t.Error("edges are undirected")
	}
	// Re-adding an existing edge is a no-op.
	if err := lg.addEdge(1, 2); err != nil {
		t.Errorf("re-add: %v", err)
	}
	// Closing the triangle must fail.
	if err := lg.addEdge(1, 3); err == nil {
		t.Error("cycle-closing edge must fail")
	}
	if err := lg.addEdge(2, 2); err == nil {
		t.Error("self-edge must fail")
	}
}

func TestLevelGraphBecomesSpanningTree(t *testing.T) {
	ids := []int{10, 20, 30, 40, 50}
	lg := newLevelGraph(ids)
	edges := [][2]int{{10, 20}, {20, 30}, {30, 40}, {40, 50}}
	for _, e := range edges {
		if err := lg.addEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// n-1 edges and full connectivity: a spanning tree.
	if len(lg.edges) != len(ids)-1 {
		t.Fatalf("%d edges, want %d", len(lg.edges), len(ids)-1)
	}
	for _, id := range ids[1:] {
		if !lg.connected(ids[0], id) {
			t.Fatalf("%d not connected to %d", ids[0], id)
		}
	}
}

// newTempVHT returns a forest whose roots are the given previous-level IDs.
func newTempVHT(rootIDs []int) *tempVHT {
	tv := &tempVHT{}
	tv.reset(rootIDs)
	return tv
}

// node returns the node with the given ID, or nil.
func (tv *tempVHT) node(id int) *tempNode { return tv.nodes[id] }

// newLevelGraph returns an edgeless graph on the given node IDs.
func newLevelGraph(ids []int) *levelGraph {
	lg := &levelGraph{}
	lg.reset(ids)
	return lg
}
