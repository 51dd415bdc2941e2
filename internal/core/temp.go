package core

import (
	"fmt"
	"slices"
)

// tempNode is a node of the temporary VHT (Listing 4 lines 14–17 and
// Listing 5). Roots are copies of the previous VHT level's nodes; non-root
// nodes are created by UpdateTempVHT, each carrying the single red edge
// (redSrc × redMult) that distinguished it from its parent.
type tempNode struct {
	id      int
	parent  *tempNode // nil for roots
	redSrc  int       // ID of the previous-level node observed (non-roots)
	redMult int
}

// tempVHT is the forest of temporary nodes used while a level is under
// construction ("TempVHT" in the pseudocode). Nodes are carved from
// fixed-capacity chunks owned by the forest; reset rewinds the chunks and
// reuses them, so a Process pays for temp nodes only until the arena
// reaches its high-water mark (see DESIGN.md decision 9 on validity
// windows: a *tempNode is valid only until the next reset of its forest).
type tempVHT struct {
	nodes map[int]*tempNode
	arena [][]tempNode
	cur   int // arena chunk currently being carved from
}

const tempChunkSize = 32

// reset rewinds the forest to an edgeless one whose roots are the given
// IDs, keeping the node arena for reuse. All previously returned *tempNode
// pointers are invalidated.
func (tv *tempVHT) reset(rootIDs []int) {
	if tv.nodes == nil {
		tv.nodes = make(map[int]*tempNode, len(rootIDs))
	} else {
		clear(tv.nodes)
	}
	for i := range tv.arena {
		tv.arena[i] = tv.arena[i][:0]
	}
	tv.cur = 0
	for _, id := range rootIDs {
		n := tv.newNode()
		n.id = id
		tv.nodes[id] = n
	}
}

// newNode carves one zeroed node from the arena.
func (tv *tempVHT) newNode() *tempNode {
	for tv.cur < len(tv.arena) && len(tv.arena[tv.cur]) == cap(tv.arena[tv.cur]) {
		tv.cur++
	}
	if tv.cur == len(tv.arena) {
		tv.arena = append(tv.arena, make([]tempNode, 0, tempChunkSize))
	}
	chunk := &tv.arena[tv.cur]
	*chunk = append(*chunk, tempNode{})
	return &(*chunk)[len(*chunk)-1]
}

// root returns the root of the tree containing the node with the given ID
// (FindRoot in Listing 5). It returns nil if the ID is unknown, or if tv
// is nil: a reset cleared the level under construction, which only an
// out-of-model schedule can follow with an Edge or Done for that level.
func (tv *tempVHT) root(id int) *tempNode {
	if tv == nil {
		return nil
	}
	n := tv.nodes[id]
	if n == nil {
		return nil
	}
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// addChild creates a child of the node with ID parentID, carrying the red
// edge (redSrc × redMult), and returns it.
func (tv *tempVHT) addChild(id, parentID, redSrc, redMult int) (*tempNode, error) {
	parent := tv.nodes[parentID]
	if parent == nil {
		return nil, fmt.Errorf("core: temp VHT has no node %d", parentID)
	}
	if tv.nodes[id] != nil {
		return nil, fmt.Errorf("core: temp VHT already has node %d", id)
	}
	child := tv.newNode()
	child.id = id
	child.parent = parent
	child.redSrc = redSrc
	child.redMult = redMult
	tv.nodes[id] = child
	return child, nil
}

// appendPathRedEdges appends to buf the red edges carried by the nodes on
// the path from the node with the given ID up to (excluding) its root, i.e.
// the full set of red edges the corresponding VHT node must receive
// (Listing 5 lines 42–48). Repeated sources are accumulated; the result is
// sorted by source ID. buf is usually a reused scratch slice (buf[:0]).
func (tv *tempVHT) appendPathRedEdges(id int, buf []obs) ([]obs, error) {
	n := tv.nodes[id]
	if n == nil {
		return buf, fmt.Errorf("core: temp VHT has no node %d", id)
	}
	start := len(buf)
	for n.parent != nil {
		buf = append(buf, obs{id2: n.redSrc, mult: n.redMult})
		n = n.parent
	}
	s := buf[start:]
	slices.SortFunc(s, func(a, b obs) int { return a.id2 - b.id2 })
	w := 0
	for r := 1; r < len(s); r++ {
		if s[r].id2 == s[w].id2 {
			s[w].mult += s[r].mult
		} else {
			w++
			s[w] = s[r]
		}
	}
	if len(s) > 0 {
		buf = buf[:start+w+1]
	}
	return buf, nil
}

// levelGraph is the auxiliary graph on the previous level's nodes
// ("LevelGraph"): it accumulates the accepted inter-class edges and must
// remain a forest so that it converges to the spanning tree S of Section
// 3.4. Cycle checks use a union-find structure alongside the edge set.
type levelGraph struct {
	parent map[int]int
	edges  map[[2]int]bool
}

// reset rewinds the graph to an edgeless one on the given node IDs,
// keeping the map storage for reuse.
func (lg *levelGraph) reset(ids []int) {
	if lg.parent == nil {
		lg.parent = make(map[int]int, len(ids))
		lg.edges = make(map[[2]int]bool)
	} else {
		clear(lg.parent)
		clear(lg.edges)
	}
	for _, id := range ids {
		lg.parent[id] = id
	}
}

func (lg *levelGraph) find(x int) int {
	for lg.parent[x] != x {
		lg.parent[x] = lg.parent[lg.parent[x]]
		x = lg.parent[x]
	}
	return x
}

// hasEdge reports whether {a, b} is already an edge.
func (lg *levelGraph) hasEdge(a, b int) bool {
	return lg.edges[edgeKey(a, b)]
}

// connected reports whether a and b are in the same component.
func (lg *levelGraph) connected(a, b int) bool {
	return lg.find(a) == lg.find(b)
}

// addEdge inserts edge {a, b}. Inserting an edge between already-connected
// distinct components would create a cycle and is rejected with an error;
// the protocol's accepted edges never do this (PreventCyclesInLevelGraph
// removes the offending observations first).
func (lg *levelGraph) addEdge(a, b int) error {
	if a == b {
		return fmt.Errorf("core: self-edge %d in level graph", a)
	}
	if lg.hasEdge(a, b) {
		return nil
	}
	if lg.connected(a, b) {
		return fmt.Errorf("core: edge {%d,%d} would close a cycle in level graph", a, b)
	}
	lg.parent[lg.find(a)] = lg.find(b)
	lg.edges[edgeKey(a, b)] = true
	return nil
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
