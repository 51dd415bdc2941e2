package dynnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"sync"
)

// Schedule is a dynamic network: an adversary that produces the
// communication multigraph of every round t ≥ 1. Implementations must be
// deterministic functions of t (randomized adversaries pre-commit via a
// seeded RNG keyed on t) so that runs are reproducible and so that the
// history-tree oracle and the protocol under test observe the same graphs.
// The engine relies on it: it does not ask for the graphs of rounds in
// which no graph can change what a process holds, so a call must not
// depend on the calls before it.
type Schedule interface {
	// N returns the number of processes.
	N() int
	// Graph returns the communication multigraph of round t (t ≥ 1).
	Graph(t int) *Multigraph
}

// InPlaceSchedule is an optional Schedule extension for allocation-free
// round generation: GraphInto computes the round-t multigraph into g,
// resetting it and reusing its backing storage, with a result identical to
// Graph(t). The engine's router uses it when available, so a steady-state
// simulation round allocates nothing for its communication graph; callers
// that retain graphs across rounds must keep using Graph.
//
// GraphInto may run on another goroutine ahead of its round: on a long run
// with a spare core the engine hands it to a generator goroutine that
// fills a ring of graphs while the run executes earlier rounds. So
// GraphInto must be a pure function of t, and may read but not write
// state it shares with the run's other hooks or with other runs; scratch
// of its own must be per call or pooled.
type InPlaceSchedule interface {
	Schedule
	// GraphInto computes the round-t multigraph into g (t ≥ 1).
	GraphInto(t int, g *Multigraph)
}

// StaticSchedule repeats a fixed multigraph at every round.
type StaticSchedule struct {
	g *Multigraph
}

var _ InPlaceSchedule = (*StaticSchedule)(nil)

// NewStatic returns a schedule that presents g at every round. Its copy of
// g is canonicalized here, once, so GraphInto only reads it.
func NewStatic(g *Multigraph) *StaticSchedule {
	s := &StaticSchedule{g: g.Clone()}
	s.g.canonicalize()
	return s
}

// N implements Schedule.
func (s *StaticSchedule) N() int { return s.g.N() }

// Graph implements Schedule.
func (s *StaticSchedule) Graph(int) *Multigraph { return s.g.Clone() }

// GraphInto implements InPlaceSchedule: the fixed graph copied into g's
// reused storage. The copy is installed pre-canonicalized, so a static
// simulation round neither allocates nor re-sorts.
func (s *StaticSchedule) GraphInto(_ int, g *Multigraph) {
	g.Reset(s.g.n)
	g.setCanonicalLinks(append(g.links, s.g.canon...))
}

// FuncSchedule adapts a plain function to the Schedule interface.
type FuncSchedule struct {
	n int
	f func(t int) *Multigraph
}

var _ Schedule = (*FuncSchedule)(nil)

// NewFunc returns a schedule backed by f. The function must return a graph
// on exactly n processes for every t ≥ 1.
func NewFunc(n int, f func(t int) *Multigraph) *FuncSchedule {
	return &FuncSchedule{n: n, f: f}
}

// N implements Schedule.
func (s *FuncSchedule) N() int { return s.n }

// Graph implements Schedule.
func (s *FuncSchedule) Graph(t int) *Multigraph { return s.f(t) }

// SequenceSchedule plays a finite list of graphs and then repeats the last
// one forever. It is convenient for reconstructing worked examples such as
// Figure 1 of the paper.
type SequenceSchedule struct {
	graphs []*Multigraph
}

var _ Schedule = (*SequenceSchedule)(nil)

// NewSequence returns a schedule that presents graphs[t-1] at round t and
// the final graph at every later round. All graphs must share a process
// count and the list must be non-empty.
func NewSequence(graphs ...*Multigraph) (*SequenceSchedule, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("dynnet: empty graph sequence")
	}
	n := graphs[0].N()
	cloned := make([]*Multigraph, len(graphs))
	for i, g := range graphs {
		if g.N() != n {
			return nil, fmt.Errorf("dynnet: graph %d has %d processes, want %d", i, g.N(), n)
		}
		cloned[i] = g.Clone()
	}
	return &SequenceSchedule{graphs: cloned}, nil
}

// N implements Schedule.
func (s *SequenceSchedule) N() int { return s.graphs[0].N() }

// Graph implements Schedule.
func (s *SequenceSchedule) Graph(t int) *Multigraph {
	if t < 1 {
		t = 1
	}
	if t > len(s.graphs) {
		t = len(s.graphs)
	}
	return s.graphs[t-1].Clone()
}

// RandomConnectedSchedule presents, at each round, an independently drawn
// connected Erdős–Rényi-style graph: a uniformly random spanning tree plus
// each remaining pair with probability p. Each round's graph is derived
// from the base seed and the round number, so the schedule is a pure
// function of t.
type RandomConnectedSchedule struct {
	n    int
	p    float64
	seed int64
}

var _ InPlaceSchedule = (*RandomConnectedSchedule)(nil)

// NewRandomConnected returns a random connected schedule on n processes
// with extra-edge probability p ∈ [0, 1].
func NewRandomConnected(n int, p float64, seed int64) *RandomConnectedSchedule {
	return &RandomConnectedSchedule{n: n, p: p, seed: seed}
}

// N implements Schedule.
func (s *RandomConnectedSchedule) N() int { return s.n }

// Graph implements Schedule. The per-round generator is a PCG seeded by
// (seed, t): constructing one is O(1), where re-seeding a classic
// math/rand source costs a 607-word register fill per round — enough to
// dominate the whole simulation hot loop (see the PR 3 scheduler table in
// EXPERIMENTS.md). The schedule remains a pure function of (n, p, seed, t).
func (s *RandomConnectedSchedule) Graph(t int) *Multigraph {
	g := NewMultigraph(s.n)
	s.GraphInto(t, g)
	return g
}

// GraphInto implements InPlaceSchedule: the same graph as Graph(t), built
// into g's reused storage.
func (s *RandomConnectedSchedule) GraphInto(t int, g *Multigraph) {
	// The generator pair (PCG state + Rand wrapper) is pooled: Seed fully
	// resets the PCG, so a recycled generator is indistinguishable from a
	// fresh one, and the simulation's once-per-round Graph call stops
	// paying two heap allocations for a 2-word state struct.
	b := rngPool.Get().(*rngBuf)
	b.pcg.Seed(uint64(s.seed), uint64(t))
	randomConnectedV2Into(g, s.n, s.p, &b.pcg)
	rngPool.Put(b)
}

// rngBuf holds a pooled PCG so the once-per-round reseed reuses its state
// struct instead of heap-allocating one.
type rngBuf struct {
	pcg randv2.PCG
}

var rngPool = sync.Pool{New: func() any { return &rngBuf{} }}

// pcgUint64N is math/rand/v2's Rand.uint64n on a concrete PCG source: a
// Lemire scaled multiply whose rejection loop near-never runs.
// Devirtualizing the source saves an interface dispatch per draw (~n²/2
// draws per simulated round), and pinning the reduction here keeps the
// schedule stream locked in-repo. The stdlib's 32-bit variant documents
// that it preserves this exact 64-bit output sequence, so one replica
// covers all platforms.
func pcgUint64N(pcg *randv2.PCG, n uint64) uint64 {
	if n&(n-1) == 0 { // n is a power of two, can mask
		return pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(pcg.Uint64(), n)
		}
	}
	return hi
}

// RandomConnected draws one connected graph on n vertices: a random
// spanning tree (random attachment) plus every remaining pair independently
// with probability p.
func RandomConnected(n int, p float64, rng *rand.Rand) *Multigraph {
	g := NewMultigraph(n)
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

// randomConnectedV2Into is RandomConnected driven by a math/rand/v2 PCG —
// the hot-loop generator behind RandomConnectedSchedule, whose per-round
// PCG is O(1) to reseed (see Graph). It draws the same distribution as
// RandomConnected but emits the links in canonical (U, V) order — it
// records the n-1 tree edges and the extra edges as bits of two per-row
// mask planes and emits the union row by row — so the graph is born
// canonical and the engine's once-per-round traversal skips the
// canonicalization sort that otherwise shows up in simulation profiles.
// It builds into g's reused storage: g is reset to n processes and its
// link backing array is refilled, so a router that round-robins one graph
// buffer allocates nothing per round.
func randomConnectedV2Into(g *Multigraph, n int, p float64, pcg *randv2.PCG) {
	g.Reset(n)
	if n <= 1 {
		return
	}
	// perm and mask are pooled scratch: one Graph call runs per round per
	// simulation, so the pool converges to a handful of buffers and the
	// per-round generator allocates only what escapes into g (nothing, once
	// g's backing has converged). The permutation is drawn by filling
	// 0..n-1 and shuffling — consuming the identical random stream as
	// rng.Perm(n), which is specified (and tested, see
	// TestPermMatchesFillShuffle) to do exactly that — so every previously
	// recorded schedule is reproduced bit-for-bit.
	buf := rcScratch.Get().(*rcBuf)
	perm := buf.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	// Manual Fisher–Yates: rand/v2 specifies Shuffle as j := uint64n(i+1)
	// for i = n-1 … 1, and pcgUint64N replicates uint64n — so this loop
	// consumes the same stream as rng.Shuffle (and hence rng.Perm) while
	// skipping the per-swap closure dispatch.
	for i := n - 1; i > 0; i-- {
		j := int(pcgUint64N(pcg, uint64(i+1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Float64() is (Uint64()>>11)·2⁻⁵³ with both steps exact (power-of-two
	// scalings), so Float64() < p ⟺ Uint64()>>11 < p·2⁵³ in real
	// arithmetic; pThr = ceil(p·2⁵³) makes that one integer compare per
	// candidate edge while consuming the identical random stream.
	pThr := uint64(math.Ceil(p * (1 << 53)))
	links := g.links[:0]
	// ⌈n/64⌉ occupancy words per row in two mask planes, tmask for the
	// n−1 tree edges and bmask for the Bernoulli extras. Each tree edge
	// attaches a new vertex, so the tree's pairs are distinct and a pair's
	// multiplicity is its tree bit plus its Bernoulli bit: the bits are the
	// whole record. The Bernoulli loop — n(n−1)/2 draws per round, the
	// generator's hot loop — therefore touches no memory between word
	// boundaries: each hit is folded into a register accumulator
	// branchlessly (the ~30%-taken branch has no pattern, and a mispredict
	// stalls the serial PCG chain). The emit pass walks only the set bits
	// of the union, so it visits ~|E| cells instead of scanning the full
	// triangle, and restores both planes to zero, keeping the pool
	// invariant.
	w := (n + 63) >> 6
	if cap(buf.mask) < 2*n*w {
		buf.mask = make([]uint64, 2*n*w)
	} else {
		buf.mask = buf.mask[:2*n*w]
	}
	tmask := buf.mask[:n*w]
	bmask := buf.mask[n*w : 2*n*w]
	for i := 1; i < n; i++ {
		// Attach perm[i] to a uniformly random earlier vertex: a random
		// recursive tree, which has expected diameter Θ(log n).
		u, v := perm[i], perm[int(pcgUint64N(pcg, uint64(i)))]
		if u > v {
			u, v = v, u
		}
		tmask[u*w+v>>6] |= 1 << uint(v&63)
	}
	// Extra edges are drawn pair-by-pair in canonical order — the same RNG
	// consumption order as the original RandomConnected. The section draws
	// n(n−1)/2 values from a serial dependency chain; lifting the PCG's
	// 128-bit state into locals for its duration keeps the chain entirely
	// in registers (the method form reloads and stores the heap state
	// every draw). localPCG replicates rand/v2's step bit-for-bit — the
	// equivalence tests that replay schedules through rand/v2 itself would
	// catch any divergence, including an upstream algorithm change.
	st := extractPCG(pcg)
	for u := 0; u < n; u++ {
		brow := bmask[u*w : u*w+w]
		for v := u + 1; v < n; {
			wi := v >> 6
			end := min((wi+1)<<6, n)
			var acc uint64
			for ; v < end; v++ {
				var hit uint64
				if st.uint64()<<11>>11 < pThr {
					hit = 1
				}
				acc |= hit << uint(v&63)
			}
			brow[wi] = acc
		}
	}
	pcg.Seed(st.hi, st.lo)
	cnt := 0
	for i := range tmask {
		cnt += bits.OnesCount64(tmask[i] | bmask[i])
	}
	if cap(links) < cnt {
		links = make([]Link, 0, cnt)
	}
	for u := 0; u < n; u++ {
		mb := u * w
		for wi := 0; wi < w; wi++ {
			tm, bm := tmask[mb+wi], bmask[mb+wi]
			m := tm | bm
			if m == 0 {
				continue
			}
			tmask[mb+wi], bmask[mb+wi] = 0, 0
			vb := wi << 6
			for m != 0 {
				tz := uint(bits.TrailingZeros64(m))
				m &= m - 1
				mult := int(tm>>tz&1 + bm>>tz&1)
				links = append(links, Link{U: u, V: vb + int(tz), Mult: mult})
			}
		}
	}
	buf.perm = perm
	rcScratch.Put(buf)
	g.setCanonicalLinks(links)
}

// localPCG is a register-resident copy of math/rand/v2's PCG: the same
// 128-bit LCG step and DXSM output function, operated on locals so a tight
// draw loop never touches the heap state. Extract with extractPCG, run the
// draws, and write the state back with pcg.Seed(st.hi, st.lo) — Seed
// assigns the raw state words, so the round trip is exact. The constants
// and step mirror $GOROOT/src/math/rand/v2/pcg.go; the schedule-replay
// tests (TestRandomConnectedScheduleBornCanonical and the fuzzer) compare
// whole graphs against draws made by rand/v2 itself, so any divergence —
// ours or upstream's — fails loudly.
type localPCG struct{ hi, lo uint64 }

// extractPCG reads p's state via its binary encoding ("pcg:" + big-endian
// hi, lo), the only exported window into it.
func extractPCG(p *randv2.PCG) localPCG {
	var b [20]byte
	buf, err := p.AppendBinary(b[:0])
	if err != nil || len(buf) != 20 {
		panic("dynnet: unexpected PCG encoding")
	}
	return localPCG{
		hi: binary.BigEndian.Uint64(buf[4:]),
		lo: binary.BigEndian.Uint64(buf[12:]),
	}
}

// uint64 is rand/v2 (*PCG).Uint64 on local state.
func (s *localPCG) uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	hi, lo := bits.Mul64(s.lo, mulLo)
	hi += s.hi*mulLo + s.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	s.lo, s.hi = lo, hi
	const cheapMul = 0xda942042e4dd58b5
	out := hi ^ hi>>32
	out *= cheapMul
	out ^= out >> 48
	out *= lo | 1
	return out
}

// rcBuf is the reusable scratch of one randomConnectedV2Into call. Only the
// buffers that do not escape into the graph live here; the links slice
// belongs to the target Multigraph. Invariant between calls: mask is
// all-zero (each emit pass restores what it used), so no per-call clear is
// needed.
type rcBuf struct {
	perm []int
	mask []uint64 // 2×n×⌈n/64⌉ words: the tree and Bernoulli mask planes
}

var rcScratch = sync.Pool{New: func() any { return new(rcBuf) }}

// RotatingStarSchedule presents a star whose center rotates every round.
// Its dynamic diameter is 2, but process degrees change constantly, which
// churns the indistinguishability classes.
type RotatingStarSchedule struct {
	n int
}

var _ Schedule = (*RotatingStarSchedule)(nil)

// NewRotatingStar returns the rotating-star schedule on n processes.
func NewRotatingStar(n int) *RotatingStarSchedule {
	return &RotatingStarSchedule{n: n}
}

// N implements Schedule.
func (s *RotatingStarSchedule) N() int { return s.n }

// Graph implements Schedule.
func (s *RotatingStarSchedule) Graph(t int) *Multigraph {
	if s.n == 0 {
		return NewMultigraph(0)
	}
	return Star(s.n, t%s.n)
}

// ShiftingPathSchedule presents a path over a permutation of the processes
// that rotates each round. Paths have dynamic diameter Θ(n): the slowest
// reasonable topology, which stresses DiamEstimate doubling.
type ShiftingPathSchedule struct {
	n int
}

var _ Schedule = (*ShiftingPathSchedule)(nil)

// NewShiftingPath returns the shifting-path schedule on n processes.
func NewShiftingPath(n int) *ShiftingPathSchedule {
	return &ShiftingPathSchedule{n: n}
}

// N implements Schedule.
func (s *ShiftingPathSchedule) N() int { return s.n }

// Graph implements Schedule.
func (s *ShiftingPathSchedule) Graph(t int) *Multigraph {
	g := NewMultigraph(s.n)
	if s.n <= 1 {
		return g
	}
	for i := 0; i+1 < s.n; i++ {
		u := (i + t) % s.n
		v := (i + 1 + t) % s.n
		g.MustAddLink(u, v, 1)
	}
	return g
}

// BottleneckSchedule joins two cliques by a single bridge whose endpoint
// pair rotates each round. Information crosses the bridge one round at a
// time, producing large effective diameters relative to edge density.
type BottleneckSchedule struct {
	n int
}

var _ Schedule = (*BottleneckSchedule)(nil)

// NewBottleneck returns the two-clique bottleneck schedule on n processes
// (n ≥ 2).
func NewBottleneck(n int) *BottleneckSchedule {
	return &BottleneckSchedule{n: n}
}

// N implements Schedule.
func (s *BottleneckSchedule) N() int { return s.n }

// Graph implements Schedule.
func (s *BottleneckSchedule) Graph(t int) *Multigraph {
	g := NewMultigraph(s.n)
	if s.n <= 1 {
		return g
	}
	half := s.n / 2
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			g.MustAddLink(i, j, 1)
		}
	}
	for i := half; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			g.MustAddLink(i, j, 1)
		}
	}
	// One rotating bridge link.
	left := t % half
	right := half + t%(s.n-half)
	g.MustAddLink(left, right, 1)
	return g
}

// UnionConnectedSchedule wraps an inner connected schedule so that the
// network is only T-union-connected: the links of each inner round are
// partitioned across T consecutive real rounds (round-robin by link index),
// so no single round need be connected, but the union of any T consecutive
// rounds contains a full inner graph.
type UnionConnectedSchedule struct {
	inner Schedule
	t     int
}

var _ Schedule = (*UnionConnectedSchedule)(nil)

// NewUnionConnected returns a T-union-connected schedule derived from
// inner. T must be positive.
func NewUnionConnected(inner Schedule, t int) (*UnionConnectedSchedule, error) {
	if t <= 0 {
		return nil, fmt.Errorf("dynnet: non-positive disconnectivity T=%d", t)
	}
	return &UnionConnectedSchedule{inner: inner, t: t}, nil
}

// N implements Schedule.
func (s *UnionConnectedSchedule) N() int { return s.inner.N() }

// T returns the dynamic disconnectivity of the schedule.
func (s *UnionConnectedSchedule) T() int { return s.t }

// Graph implements Schedule.
func (s *UnionConnectedSchedule) Graph(t int) *Multigraph {
	block := (t-1)/s.t + 1 // inner round index
	phase := (t - 1) % s.t // which slice of the block this round carries
	full := s.inner.Graph(block)
	g := NewMultigraph(full.N())
	for i, l := range full.CanonicalLinks() {
		if i%s.t == phase {
			g.MustAddLink(l.U, l.V, l.Mult)
		}
	}
	return g
}

// UnionConnected reports whether the union of graphs of rounds
// [from, from+window) under s is connected.
func UnionConnected(s Schedule, from, window int) (bool, error) {
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
	return acc.Connected(), nil
}
