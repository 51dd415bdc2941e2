package historytree

import (
	"testing"

	"anondyn/internal/dynnet"
)

// This test reads the batched refiner's internals, so it stays in package
// historytree; the other batched-refiner tests (batch_test.go) compare
// canonical forms from internal/oracle, which imports this package, and so
// are external.

// TestBatchedGroupKeysCoverLevel checks the interned group keys the sharing
// layer consumes: after a refine, gid must be a dense first-occurrence
// numbering whose fibers are exactly the new level's classes.
func TestBatchedGroupKeysCoverLevel(t *testing.T) {
	n := 9
	s := dynnet.NewRandomConnected(n, 0.4, 23)
	inputs := make([]Input, n)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := run.NodeOf[0]
	br := newBatchRefiner(n)
	nextID := len(run.Tree.Level(0))
	next, err := br.refine(run.Tree, s.Graph(1), cur, &nextID, run.Card)
	if err != nil {
		t.Fatal(err)
	}
	seen := -1
	for p := 0; p < n; p++ {
		k := int(br.gid[p])
		if k > seen+1 {
			t.Fatalf("group keys not first-occurrence dense: gid[%d]=%d after max %d", p, k, seen)
		}
		if k == seen+1 {
			seen = k
		}
		if br.groupNode[k] != next[p] {
			t.Fatalf("gid[%d] maps to node %d, process assigned %d", p, br.groupNode[k].ID, next[p].ID)
		}
	}
	if seen+1 != len(run.Tree.Level(1)) {
		t.Fatalf("%d groups for a level of %d classes", seen+1, len(run.Tree.Level(1)))
	}
}
