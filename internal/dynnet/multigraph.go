// Package dynnet models dynamic networks of anonymous processes: undirected
// multigraphs whose link sets are rearranged arbitrarily at every synchronous
// round, as defined in Section 2 of Di Luna–Viglietta (PODC 2023).
//
// A dynamic network is an infinite sequence 𝒢 = (G_t) of multigraphs on the
// same vertex set {0, …, n-1}. Multigraphs may contain parallel links and
// self-loops; a self-loop represents a single link, i.e. a single message
// sent and received by the same process. The package provides the multigraph
// type itself and a collection of adversarial schedule generators used
// throughout the test and benchmark suites. The connectivity checks that
// tests apply to its graphs are in internal/oracle.
package dynnet

import (
	"fmt"
	"slices"
	"strings"
)

// Link is one (multi-)edge of a round multigraph. U and V are process
// indices in [0, n); U == V denotes a self-loop. Mult is the number of
// parallel links and must be positive.
type Link struct {
	U, V int
	Mult int
}

// Multigraph is the communication graph of a single round: n processes and
// a multiset of undirected links. The zero value is an empty graph on zero
// processes.
type Multigraph struct {
	n int
	// links is the raw insertion-order list; the same (U, V) pair may
	// appear more than once (AddLink is append-only so that graph
	// construction is O(1) per link). Iteration code sums multiplicities,
	// so duplicates are semantically transparent.
	links []Link
	// canon memoizes the canonical (merged, sorted) link list; it is
	// invalidated by AddLink and rebuilt on demand, so the engine's
	// once-per-round traversals don't re-sort.
	canon []Link
	dirty bool
	// pos is ResetPath's scratch: each process's index on the path.
	pos []int
}

// NewMultigraph returns an empty multigraph on n processes.
// It panics if n is negative; a zero-process graph is allowed (and empty).
func NewMultigraph(n int) *Multigraph {
	if n < 0 {
		panic(fmt.Sprintf("dynnet: negative process count %d", n))
	}
	return &Multigraph{n: n}
}

// N returns the number of processes.
func (g *Multigraph) N() int { return g.n }

// AddLink adds a link {u, v} with multiplicity mult. Adding the same pair
// twice accumulates multiplicity. It returns an error if either endpoint is
// out of range or mult is not positive.
func (g *Multigraph) AddLink(u, v, mult int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("dynnet: link {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if mult <= 0 {
		return fmt.Errorf("dynnet: non-positive multiplicity %d", mult)
	}
	if u > v {
		u, v = v, u
	}
	g.links = append(g.links, Link{U: u, V: v, Mult: mult})
	g.canon = nil
	g.dirty = true
	return nil
}

// MustAddLink is AddLink for construction code with static arguments;
// it panics on error.
func (g *Multigraph) MustAddLink(u, v, mult int) {
	if err := g.AddLink(u, v, mult); err != nil {
		panic(err)
	}
}

// cmpLinks orders links by (U, V); multiplicity does not participate.
func cmpLinks(a, b Link) int {
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
}

// canonicalize returns the memoized canonical link list: parallel
// insertions of the same pair merged into one entry, sorted by (U, V). It
// canonicalizes the raw list in place — insertion order is never
// observable, every accessor sums multiplicities, and merging only shrinks
// the list — so a graph's one-time canonicalization allocates nothing. A
// raw list built in order (like the Isolator's path) skips the sort.
func (g *Multigraph) canonicalize() []Link {
	if !g.dirty {
		return g.canon
	}
	if !slices.IsSortedFunc(g.links, cmpLinks) {
		slices.SortFunc(g.links, cmpLinks)
	}
	merged := g.links[:0]
	for _, l := range g.links {
		if k := len(merged); k > 0 && merged[k-1].U == l.U && merged[k-1].V == l.V {
			merged[k-1].Mult += l.Mult
			continue
		}
		merged = append(merged, l)
	}
	g.links = merged
	g.canon = merged
	g.dirty = false
	return g.canon
}

// Links returns a copy of the link multiset in canonical (U ≤ V, sorted)
// order, with parallel insertions of the same pair merged.
func (g *Multigraph) Links() []Link {
	canon := g.canonicalize()
	out := make([]Link, len(canon))
	copy(out, canon)
	return out
}

// CanonicalLinks is Links without the defensive copy: it returns the
// memoized canonical link list directly. The slice is shared with the
// graph — callers must not modify it. It exists for once-per-round
// traversals in simulation hot loops (the engine router, the history-tree
// oracle), where Links' copy-and-sort dominated profiles.
func (g *Multigraph) CanonicalLinks() []Link {
	return g.canonicalize()
}

// Union returns a new multigraph whose link multiset is the union (with
// accumulated multiplicities) of g and h. Both graphs must have the same
// process count.
func (g *Multigraph) Union(h *Multigraph) (*Multigraph, error) {
	if g.n != h.n {
		return nil, fmt.Errorf("dynnet: union of graphs with %d and %d processes", g.n, h.n)
	}
	out := NewMultigraph(g.n)
	for _, l := range g.links {
		if err := out.AddLink(l.U, l.V, l.Mult); err != nil {
			return nil, err
		}
	}
	for _, l := range h.links {
		if err := out.AddLink(l.U, l.V, l.Mult); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setCanonicalLinks installs a link list that the caller guarantees is
// already canonical: sorted by (U, V), no duplicate pairs, every endpoint
// in range, every multiplicity positive. It exists for generators inside
// this package (see randomConnectedV2) that can emit links in canonical
// order and thereby skip the per-graph sort in simulation hot loops.
func (g *Multigraph) setCanonicalLinks(links []Link) {
	g.links = links
	g.canon = links
	g.dirty = false
}

// Reset reinitializes g in place to an empty graph on n processes, keeping
// the link backing storage for reuse. It is the receiving half of
// InPlaceSchedule.GraphInto. It panics if n is negative.
func (g *Multigraph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("dynnet: negative process count %d", n))
	}
	g.n = n
	g.links = g.links[:0]
	g.canon = nil
	g.dirty = false
}

// ResetPath reinitializes g in place to the path through order, which
// must be a permutation of 0..len(order)-1: a graph on len(order)
// processes with one link between each two consecutive entries of order.
// It writes the canonical link list directly, in pid order, keeping the
// link storage for reuse, so a graph rebuilt every round as a path
// allocates nothing and is never sorted. If order is not a permutation it
// returns an error and leaves g without links.
func (g *Multigraph) ResetPath(order []int) error {
	n := len(order)
	g.Reset(n)
	if cap(g.pos) < n {
		g.pos = make([]int, n)
	}
	pos := g.pos[:n]
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range order {
		if u < 0 || u >= n || pos[u] >= 0 {
			return fmt.Errorf("dynnet: path order is not a permutation of 0..%d: entry %d is %d", n-1, i, u)
		}
		pos[u] = i
	}
	// Each process, in pid order, links to its path neighbours above it,
	// lower one first: the canonical (U, V) order.
	links := g.links
	for u, i := range pos {
		lo, hi := -1, -1
		if i > 0 {
			lo = order[i-1]
		}
		if i+1 < n {
			hi = order[i+1]
		}
		lo, hi = min(lo, hi), max(lo, hi)
		if lo > u {
			links = append(links, Link{U: u, V: lo, Mult: 1})
		}
		if hi > u {
			links = append(links, Link{U: u, V: hi, Mult: 1})
		}
	}
	g.setCanonicalLinks(links)
	return nil
}

// Clone returns a deep copy of g.
func (g *Multigraph) Clone() *Multigraph {
	out := NewMultigraph(g.n)
	out.links = make([]Link, len(g.links))
	copy(out.links, g.links)
	out.dirty = len(out.links) > 0
	return out
}

// String renders the graph as "n=4 {0-1 x2, 2-3}".
func (g *Multigraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d {", g.n)
	for i, l := range g.Links() {
		if i > 0 {
			b.WriteString(", ")
		}
		if l.Mult == 1 {
			fmt.Fprintf(&b, "%d-%d", l.U, l.V)
		} else {
			fmt.Fprintf(&b, "%d-%d x%d", l.U, l.V, l.Mult)
		}
	}
	b.WriteString("}")
	return b.String()
}

// Path returns the path graph 0-1-…-(n-1).
func Path(n int) *Multigraph {
	g := NewMultigraph(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(i, i+1, 1)
	}
	return g
}

// Cycle returns the cycle graph on n vertices (a double link for n = 2 and
// a double self-loop for n = 1, matching the paper's degenerate cycles C_v).
func Cycle(n int) *Multigraph {
	g := NewMultigraph(n)
	switch n {
	case 0:
	case 1:
		g.MustAddLink(0, 0, 2)
	case 2:
		g.MustAddLink(0, 1, 2)
	default:
		for i := 0; i < n; i++ {
			g.MustAddLink(i, (i+1)%n, 1)
		}
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Multigraph {
	g := NewMultigraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddLink(i, j, 1)
		}
	}
	return g
}

// Star returns the star graph with the given center.
func Star(n, center int) *Multigraph {
	g := NewMultigraph(n)
	for i := 0; i < n; i++ {
		if i != center {
			g.MustAddLink(center, i, 1)
		}
	}
	return g
}
