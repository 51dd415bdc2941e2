package oracle

import (
	"fmt"
	"math/rand"

	"anondyn/internal/dynnet"
)

// LinkCount returns the total number of links of g counted with
// multiplicity.
func LinkCount(g *dynnet.Multigraph) int {
	total := 0
	for _, l := range g.CanonicalLinks() {
		total += l.Mult
	}
	return total
}

// Neighbors returns, for process u of g, the multiset of neighbors as a map
// from neighbor index to the number of links shared with u. A self-loop
// {u,u} with multiplicity m contributes m to entry u (one message per
// loop).
func Neighbors(g *dynnet.Multigraph, u int) map[int]int {
	out := make(map[int]int)
	for _, l := range g.CanonicalLinks() {
		switch {
		case l.U == u && l.V == u:
			out[u] += l.Mult
		case l.U == u:
			out[l.V] += l.Mult
		case l.V == u:
			out[l.U] += l.Mult
		}
	}
	return out
}

// Degree returns the number of incident links of u counted with
// multiplicity. A self-loop counts once (one message delivered).
func Degree(g *dynnet.Multigraph, u int) int {
	d := 0
	for _, m := range Neighbors(g, u) {
		d += m
	}
	return d
}

// Connected reports whether the multigraph g is connected. The empty graph
// and single-vertex graph are connected by convention.
func Connected(g *dynnet.Multigraph) bool {
	if g.N() <= 1 {
		return true
	}
	adj := adjacency(g)
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N()
}

// adjacency builds a simple adjacency list ignoring multiplicities and
// self-loops (sufficient for connectivity).
func adjacency(g *dynnet.Multigraph) [][]int {
	adj := make([][]int, g.N())
	for _, l := range g.CanonicalLinks() {
		if l.U == l.V {
			continue
		}
		adj[l.U] = append(adj[l.U], l.V)
		adj[l.V] = append(adj[l.V], l.U)
	}
	return adj
}

// RandomConnected draws one connected graph on n vertices: a random
// spanning tree (random attachment) plus every remaining pair independently
// with probability p. It draws from a math/rand source, so a test can
// take a graph from any seeded rand.Rand; dynnet.RandomConnectedSchedule
// draws the same distribution from a PCG.
func RandomConnected(n int, p float64, rng *rand.Rand) *dynnet.Multigraph {
	g := dynnet.NewMultigraph(n)
	if n <= 1 {
		return g
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach perm[i] to a uniformly random earlier vertex: a random
		// recursive tree, which has expected diameter Θ(log n).
		j := perm[rng.Intn(i)]
		g.MustAddLink(perm[i], j, 1)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddLink(u, v, 1)
			}
		}
	}
	return g
}

// UnionConnected reports whether the union of graphs of rounds
// [from, from+window) under s is connected.
func UnionConnected(s dynnet.Schedule, from, window int) (bool, error) {
	if window <= 0 {
		return false, fmt.Errorf("dynnet: non-positive window %d", window)
	}
	acc := s.Graph(from)
	for t := from + 1; t < from+window; t++ {
		next, err := acc.Union(s.Graph(t))
		if err != nil {
			return false, err
		}
		acc = next
	}
	return Connected(acc), nil
}
