// Package historytree implements history trees for anonymous dynamic
// networks, the central data structure of Di Luna–Viglietta (FOCS 2022) and
// of the PODC 2023 congested-network algorithm reproduced by this module.
//
// A history tree represents the evolution of the indistinguishability
// classes of a network's processes. Its nodes are partitioned into levels:
// level -1 contains the root (all processes); a node of level t ≥ 0
// represents a class of processes that are indistinguishable at the end of
// round t. Black edges form the refinement tree (a child represents a
// subset of its parent); red multi-edges connect a node v′ of level t+1 to
// nodes of level t and record that, at round t+1, every process of v′
// received exactly Mult messages from processes of the level-t class.
//
// The package provides the tree structure itself (with the integer node IDs
// used by the congested protocol), an oracle that builds the true history
// tree of any schedule (build.go), the cardinality solver that plays the
// role of the FOCS 2022 "CountFromView" black box (count.go), and ASCII/DOT
// rendering (render.go). Canonical forms, isomorphism and the ground-truth
// weight check are test oracles in internal/oracle; view extraction is in
// this package's tests.
package historytree

import (
	"fmt"
	"slices"
	"strconv"
)

// RootID is the conventional ID of the root node (level -1), following
// Listing 1 of the paper.
const RootID = -1

// Input is the initial observable state of a process: its leader flag and
// an O(log n)-bit input value. Two processes are distinguishable at round 0
// exactly when their Inputs differ.
type Input struct {
	Leader bool
	Value  int64
}

// String renders the input compactly, e.g. "L:0" or "7".
func (in Input) String() string {
	return string(in.appendText(make([]byte, 0, 8)))
}

// appendText appends String's rendering to dst.
func (in Input) appendText(dst []byte) []byte {
	if in.Leader {
		dst = append(dst, 'L', ':')
	}
	return strconv.AppendInt(dst, in.Value, 10)
}

// RedEdge is a red multi-edge incident to a node v of level t: the class
// Src (a node of level t-1) from which every process of v received Mult
// identical messages at round t.
type RedEdge struct {
	Src  *Node
	Mult int
}

// Node is one indistinguishability class.
type Node struct {
	// ID is the node's unique identifier within its tree. The congested
	// protocol assigns process IDs equal to the ID of the node representing
	// them.
	ID int
	// Level is the node's level; -1 for the root.
	Level int
	// Parent is the black-edge parent (nil for the root).
	Parent *Node
	// Children are the black-edge children, in insertion order. The backing
	// array is carved from the tree's shared edge arenas; treat it as owned
	// by the tree.
	Children []*Node
	// Input is the input labeling, meaningful for level-0 nodes only.
	Input Input
	// Red are the red edges towards level Level-1, in insertion order. Like
	// Children, the backing array belongs to the tree's arenas.
	Red []RedEdge
}

// RedMult returns the multiplicity of the red edge from src, or 0.
func (v *Node) RedMult(src *Node) int {
	for _, e := range v.Red {
		if e.Src == src {
			return e.Mult
		}
	}
	return 0
}

// Arena layout (see DESIGN.md decision 9). Nodes live in fixed-capacity
// chunks that are appended to but never reallocated, so &chunk[i] is stable
// for the lifetime of the tree and the public *Node surface is unchanged.
// Children and Red slices are carved from shared backing arrays with a
// small initial capacity; a slice that outgrows its carve is re-carved at
// twice the capacity (the abandoned carve is waste, bounded by 2× overall).
// byID is a flat slice indexed by ID+1 — protocol IDs are small dense
// integers — replacing the seed's map[int]*Node on the hot lookup path.
const (
	nodeChunkSize = 64
	edgeChunkSize = 256
	edgeInitCap   = 4
)

// Tree is a history tree: a root plus a (finite prefix of the infinite)
// sequence of levels.
type Tree struct {
	root   *Node
	levels [][]*Node // levels[i] holds level i-1; levels[0] = {root}

	// byID[id+1] is the node with the given ID (RootID = -1 lands at
	// index 0), nil when absent. The slice only ever grows; truncation
	// nils entries in place.
	byID     []*Node
	numNodes int

	// nodeArena holds the nodes themselves in pointer-stable chunks.
	nodeArena [][]Node
	// childArena and redArena back the nodes' Children and Red slices.
	childArena [][]*Node
	redArena   [][]RedEdge

	// gen counts destructive truncations. Node IDs are reused after a
	// protocol reset (the congested algorithm restores its fresh-ID counter
	// from a snapshot), so incremental consumers such as Solver cannot rely
	// on IDs to detect that the prefix they consumed was rewritten; they
	// compare generations instead.
	gen uint64

	// mut counts every structural mutation (AddChild, AddRed,
	// TruncateLevels); it stamps the balance-pair cache below. The cache
	// makes repeated solver passes over a quiescent tree O(levels) instead
	// of O(levels²) in pair enumerations. Reading through the cache mutates
	// it, so a Tree is not safe for concurrent use even read-only — which
	// matches how every consumer already treats it (one tree per process).
	mut        uint64
	pairsMut   uint64
	pairsLevel [][]nodePair

	// peakNodes is the high-water mark of numNodes over the tree's
	// lifetime.
	peakNodes int
}

// New returns a tree containing only the root node, with ID RootID.
func New() *Tree {
	t := &Tree{}
	root := t.newNode()
	root.ID = RootID
	root.Level = -1
	t.root = root
	t.levels = [][]*Node{{root}}
	t.setByID(RootID, root)
	t.numNodes = 1
	t.peakNodes = 1
	return t
}

// newNode carves one zeroed node out of the arena.
func (t *Tree) newNode() *Node {
	if k := len(t.nodeArena); k == 0 || len(t.nodeArena[k-1]) == cap(t.nodeArena[k-1]) {
		t.nodeArena = append(t.nodeArena, make([]Node, 0, nodeChunkSize))
	}
	chunk := &t.nodeArena[len(t.nodeArena)-1]
	*chunk = append(*chunk, Node{})
	return &(*chunk)[len(*chunk)-1]
}

// carve returns an empty slice with capacity c backed by the shared arena
// behind *arena. Oversized requests fall back to a plain allocation.
func carve[T any](arena *[][]T, c int) []T {
	if c > edgeChunkSize {
		return make([]T, 0, c)
	}
	k := len(*arena)
	if k == 0 || cap((*arena)[k-1])-len((*arena)[k-1]) < c {
		*arena = append(*arena, make([]T, 0, edgeChunkSize))
		k++
	}
	chunk := (*arena)[k-1]
	off := len(chunk)
	(*arena)[k-1] = chunk[:off+c]
	return chunk[off : off : off+c]
}

// appendEdge appends x to s, re-carving from the arena instead of letting
// the runtime allocate when the carve is full.
func appendEdge[T any](arena *[][]T, s []T, x T) []T {
	if len(s) == cap(s) {
		newCap := edgeInitCap
		if c := cap(s); c > 0 {
			newCap = 2 * c
		}
		grown := carve(arena, newCap)[:len(s)]
		copy(grown, s)
		s = grown
	}
	return append(s, x)
}

func (t *Tree) setByID(id int, v *Node) {
	idx := id + 1
	if idx >= len(t.byID) {
		if idx >= cap(t.byID) {
			grown := make([]*Node, idx+1, max(2*cap(t.byID), idx+1))
			copy(grown, t.byID)
			t.byID = grown
		} else {
			// The region between len and cap is zeroed: len never
			// shrinks, and growth copies zero-fill the tail.
			t.byID = t.byID[:idx+1]
		}
	}
	t.byID[idx] = v
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Depth returns the index of the deepest level present (-1 if only the
// root exists).
func (t *Tree) Depth() int { return len(t.levels) - 2 }

// Level returns the nodes of level i (i ≥ -1) in insertion order, or nil if
// the level does not exist yet. The returned slice must not be modified.
func (t *Tree) Level(i int) []*Node {
	idx := i + 1
	if idx < 0 || idx >= len(t.levels) {
		return nil
	}
	return t.levels[idx]
}

// NodeByID returns the node with the given ID, or nil.
func (t *Tree) NodeByID(id int) *Node {
	idx := id + 1
	if idx < 0 || idx >= len(t.byID) {
		return nil
	}
	return t.byID[idx]
}

// NumNodes returns the total number of nodes including the root.
func (t *Tree) NumNodes() int { return t.numNodes }

// PeakResidentNodes returns the high-water mark of NumNodes over the tree's
// lifetime; truncation does not lower it.
func (t *Tree) PeakResidentNodes() int { return t.peakNodes }

// AddChild creates a new node with the given ID as a child of parent.
// The child's level is parent.Level+1; a new level is materialized if
// needed. IDs must be unique (and ≥ RootID); levels may only grow one at a
// time.
func (t *Tree) AddChild(id int, parent *Node, input Input) (*Node, error) {
	if parent == nil {
		return nil, fmt.Errorf("historytree: nil parent for node %d", id)
	}
	if id < RootID {
		return nil, fmt.Errorf("historytree: node ID %d below RootID", id)
	}
	if t.NodeByID(id) != nil {
		return nil, fmt.Errorf("historytree: duplicate node ID %d", id)
	}
	level := parent.Level + 1
	idx := level + 1
	if idx > len(t.levels) {
		return nil, fmt.Errorf("historytree: node %d at level %d but deepest level is %d",
			id, level, t.Depth())
	}
	t.mut++
	node := t.newNode()
	node.ID = id
	node.Level = level
	node.Parent = parent
	node.Input = input
	parent.Children = appendEdge(&t.childArena, parent.Children, node)
	if idx == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	t.levels[idx] = append(t.levels[idx], node)
	t.setByID(id, node)
	t.numNodes++
	if t.numNodes > t.peakNodes {
		t.peakNodes = t.numNodes
	}
	return node, nil
}

// AddRed records a red edge of multiplicity mult from src (level L-1) to
// node v (level L). Repeated additions for the same pair accumulate.
func (t *Tree) AddRed(v, src *Node, mult int) error {
	if v == nil || src == nil {
		return fmt.Errorf("historytree: nil endpoint for red edge")
	}
	if mult <= 0 {
		return fmt.Errorf("historytree: non-positive red multiplicity %d", mult)
	}
	if src.Level != v.Level-1 {
		return fmt.Errorf("historytree: red edge from level %d to level %d", src.Level, v.Level)
	}
	t.mut++
	for i := range v.Red {
		if v.Red[i].Src == src {
			v.Red[i].Mult += mult
			return nil
		}
	}
	v.Red = appendEdge(&t.redArena, v.Red, RedEdge{Src: src, Mult: mult})
	return nil
}

// Generation returns the tree's truncation generation: it changes whenever
// TruncateLevels removes nodes, and is stable under pure growth.
func (t *Tree) Generation() uint64 { return t.gen }

// TruncateLevels removes all levels ≥ from (from ≥ 0), deleting the nodes
// and any edges incident to them. It implements the reset of Listing 6.
// Arena space held by the removed nodes is not reclaimed until the tree
// itself is released (Clone produces a compact copy).
func (t *Tree) TruncateLevels(from int) {
	idx := from + 1
	if idx < 1 {
		idx = 1
	}
	if idx >= len(t.levels) {
		return
	}
	t.gen++
	t.mut++
	for _, level := range t.levels[idx:] {
		for _, node := range level {
			t.byID[node.ID+1] = nil
			t.numNodes--
		}
	}
	t.levels = t.levels[:idx]
	// Drop black edges into the removed levels.
	for _, node := range t.levels[len(t.levels)-1] {
		node.Children = nil
	}
}

// RedEdgeCount returns the number of distinct red edges (ignoring
// multiplicity) in levels 0..maxLevel inclusive; maxLevel < 0 counts the
// whole tree.
func (t *Tree) RedEdgeCount(maxLevel int) int {
	if maxLevel < 0 {
		maxLevel = t.Depth()
	}
	count := 0
	for l := 0; l <= maxLevel; l++ {
		for _, v := range t.Level(l) {
			count += len(v.Red)
		}
	}
	return count
}

// Validate checks structural well-formedness: level bookkeeping, parent
// levels, red edge levels and positivity, and ID uniqueness. It returns the
// first violation found.
func (t *Tree) Validate() error {
	seen := make(map[int]bool, t.numNodes)
	for l := -1; l <= t.Depth(); l++ {
		for _, v := range t.Level(l) {
			if v.Level != l {
				return fmt.Errorf("historytree: node %d stored at level %d has Level=%d", v.ID, l, v.Level)
			}
			if seen[v.ID] {
				return fmt.Errorf("historytree: duplicate ID %d", v.ID)
			}
			seen[v.ID] = true
			if t.NodeByID(v.ID) != v {
				return fmt.Errorf("historytree: node %d not indexed by ID", v.ID)
			}
			if l == -1 {
				if v.Parent != nil {
					return fmt.Errorf("historytree: root has a parent")
				}
				continue
			}
			if v.Parent == nil || v.Parent.Level != l-1 {
				return fmt.Errorf("historytree: node %d has bad parent", v.ID)
			}
			for _, e := range v.Red {
				if e.Src.Level != l-1 {
					return fmt.Errorf("historytree: node %d red edge from level %d", v.ID, e.Src.Level)
				}
				if e.Mult <= 0 {
					return fmt.Errorf("historytree: node %d red edge mult %d", v.ID, e.Mult)
				}
			}
		}
	}
	if len(seen) != t.numNodes {
		return fmt.Errorf("historytree: node count is %d, levels have %d", t.numNodes, len(seen))
	}
	return nil
}

// sortedRedKeys returns v's red edges sorted by source ID, for canonical
// traversals.
func sortedRedKeys(v *Node) []RedEdge {
	out := make([]RedEdge, len(v.Red))
	copy(out, v.Red)
	slices.SortFunc(out, func(a, b RedEdge) int { return a.Src.ID - b.Src.ID })
	return out
}
