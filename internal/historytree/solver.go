package historytree

import (
	"fmt"
	"math/big"
	"time"
)

// Solver is the incremental counterpart of Count and Frequencies. Where
// those rebuild coefficient vectors and re-run the whole elimination each
// time the tree gains a level, a Solver persists across levels: it keeps a
// reduced row basis of every balance equation seen so far, modulo each
// prime of a multi-modular battery (modElim), and when the deepest complete
// level advances from l to l+1 it (a) lifts the stored rows onto the new
// level's variables — each level-l column expands into the block of its
// children, which preserves pivots and rank — and (b) feeds only level l's
// balance equations, which are naturally sparse over the level-(l+1)
// basis. The exact null ray is recovered by CRT and rational
// reconstruction; calls the battery cannot certify fall back to the
// from-scratch big.Int Count/Frequencies.
//
// Because every equation of every consumed level is in the row space (the
// lift re-expresses old equations exactly as the from-scratch solver's
// descendant-coefficient expansion would), a rank of k−1 pins the same
// one-dimensional null space as Count's, and no post-hoc verification pass
// is needed: an equation the ray would violate is independent of the row
// space and would have pushed the rank to k instead.
//
// A Solver is attached to one tree at a time and assumes the consumed
// prefix only grows. Protocol resets rewrite the prefix while reusing node
// IDs, so the Solver watches Tree.Generation and rebuilds from level 0
// whenever it changes (or when asked about a shallower level than it has
// consumed). A Solver is not safe for concurrent use.
type Solver struct {
	t     *Tree
	gen   uint64
	level int // deepest consumed level; -1 when unattached

	basis   []*Node       // nodes of the consumed level, insertion order
	idx     map[*Node]int // basis node → column
	anc0    []*Node       // level-0 ancestor of each basis column
	covered []bool        // some ancestor (levels 1..level) has a cross red edge

	melim  *modElim // prime battery; survives resets (luck is system-independent)
	broken bool     // structural fallback: delegate to from-scratch until reset

	stats SolverStats
}

// SolverStats counts the work a Solver has done, for regression tests and
// run-level reporting.
type SolverStats struct {
	// Calls counts CountAt/FrequenciesAt invocations.
	Calls int
	// LevelsConsumed counts level-extension steps (each consumes one new
	// complete level's equations exactly once).
	LevelsConsumed int
	// Rebuilds counts full rebuilds forced by tree truncation (resets),
	// retargeting, or a shallower query.
	Rebuilds int
	// Equations counts balance equations fed into the elimination state.
	Equations int
	// Fallbacks counts calls answered by the from-scratch solver because
	// the tree prefix was structurally incomplete.
	Fallbacks int
	// SolveTime accumulates wall time spent inside CountAt/FrequenciesAt.
	SolveTime time.Duration

	// PrimesUsed is the number of battery primes the solver has adopted
	// over its lifetime (evicted primes included).
	PrimesUsed int
	// CRTReconstructions counts null-ray CRT+rational recoveries.
	CRTReconstructions int
	// UnluckyEvictions counts battery primes evicted for rank drop or
	// pivot-profile drift.
	UnluckyEvictions int
	// WitnessFallbacks counts calls answered by the big.Int witness because
	// the modular battery failed to certify within its attempt budget.
	WitnessFallbacks int
}

// NewSolver returns an empty Solver; it attaches to a tree on first use.
func NewSolver() *Solver {
	return &Solver{level: -1}
}

// Stats returns the accumulated work counters.
func (s *Solver) Stats() SolverStats {
	st := s.stats
	if s.melim != nil {
		st.PrimesUsed = s.melim.nextPrime
		st.CRTReconstructions = s.melim.crtRecons
		st.UnluckyEvictions = s.melim.evictions
	}
	return st
}

// CountAt is the incremental equivalent of Count(t, completeLevels).
func (s *Solver) CountAt(t *Tree, completeLevels int) (CountResult, error) {
	start := time.Now()
	defer func() {
		s.stats.Calls++
		s.stats.SolveTime += time.Since(start)
	}()
	leaders := leaderNodes(t)
	if len(leaders) != 1 {
		return CountResult{}, fmt.Errorf("historytree: %d leader classes at level 0, want 1", len(leaders))
	}
	ok, err := s.ensure(t, completeLevels)
	if err != nil {
		return CountResult{}, err
	}
	if !ok {
		s.stats.Fallbacks++
		return Count(t, completeLevels)
	}
	ray, certified := s.resolve()
	if !certified {
		s.stats.WitnessFallbacks++
		return Count(t, completeLevels)
	}
	if ray == nil {
		return CountResult{}, nil
	}
	return countFromWeights(t, s.weights(ray))
}

// FrequenciesAt is the incremental equivalent of Frequencies(t, completeLevels).
func (s *Solver) FrequenciesAt(t *Tree, completeLevels int) (FrequencyResult, error) {
	start := time.Now()
	defer func() {
		s.stats.Calls++
		s.stats.SolveTime += time.Since(start)
	}()
	ok, err := s.ensure(t, completeLevels)
	if err != nil {
		return FrequencyResult{}, err
	}
	if !ok {
		s.stats.Fallbacks++
		return Frequencies(t, completeLevels)
	}
	ray, certified := s.resolve()
	if !certified {
		s.stats.WitnessFallbacks++
		return Frequencies(t, completeLevels)
	}
	if ray == nil {
		return FrequencyResult{}, nil
	}
	return frequenciesFromWeights(t, s.weights(ray))
}

// ensure advances the consumed prefix to completeLevels, rebuilding first if
// the tree was truncated or the query regressed. It returns ok=false when
// the prefix is structurally incomplete (a consumed-level node without
// children), in which case the caller must fall back to the from-scratch
// path.
func (s *Solver) ensure(t *Tree, completeLevels int) (bool, error) {
	if completeLevels < 0 || completeLevels > t.Depth() {
		return false, fmt.Errorf("historytree: completeLevels %d out of range [0,%d]", completeLevels, t.Depth())
	}
	stale := s.t != t || s.gen != t.Generation() ||
		completeLevels < s.level ||
		(s.level >= 0 && len(s.basis) != len(t.Level(s.level)))
	if stale {
		if s.t != nil {
			s.stats.Rebuilds++
		}
		s.reset(t)
	}
	if s.broken {
		return false, nil
	}
	if s.level < 0 {
		base := t.Level(0)
		if len(base) == 0 {
			return false, fmt.Errorf("historytree: empty level 0")
		}
		s.level = 0
		s.basis = base
		s.idx = make(map[*Node]int, len(base))
		s.anc0 = make([]*Node, len(base))
		s.covered = make([]bool, len(base))
		for i, v := range base {
			s.idx[v] = i
			s.anc0[i] = v
		}
		if s.melim == nil {
			s.melim = newModElim(len(base), 2)
		} else {
			s.melim.reset(len(base))
		}
	}
	for s.level < completeLevels {
		if !s.extend(t) {
			s.broken = true
			return false, nil
		}
	}
	return true, nil
}

func (s *Solver) reset(t *Tree) {
	s.t = t
	s.gen = t.Generation()
	s.level = -1
	s.basis, s.idx, s.anc0, s.covered = nil, nil, nil, nil
	s.broken = false
}

// extend consumes one more level: it lifts the elimination state onto the
// next level's variables and feeds that level's balance equations. It
// returns false if the prefix is structurally incomplete for lifting.
func (s *Solver) extend(t *Tree) bool {
	next := t.Level(s.level + 1)
	if len(next) == 0 {
		return false
	}
	parentIdx := make([]int32, len(next))
	childCount := make([]int32, len(s.basis))
	for c, v := range next {
		j, ok := s.idx[v.Parent]
		if !ok {
			return false
		}
		parentIdx[c] = int32(j)
		childCount[j]++
	}
	for _, n := range childCount {
		if n == 0 {
			// A consumed-level class with no refinement: the prefix is not
			// actually complete, and lifting would drop a pivot column.
			return false
		}
	}

	// The new level's equations, collected before the basis moves so the
	// pair enumeration matches the from-scratch solver's.
	pairs := balancePairs(t, s.level)

	s.melim.lift(parentIdx, len(next))

	idx := make(map[*Node]int, len(next))
	anc0 := make([]*Node, len(next))
	covered := make([]bool, len(next))
	for c, v := range next {
		idx[v] = c
		anc0[c] = s.anc0[parentIdx[c]]
		covered[c] = s.covered[parentIdx[c]] || crossRed(v)
	}
	s.basis, s.idx, s.anc0, s.covered = next, idx, anc0, covered
	s.level++
	s.stats.LevelsConsumed++

	s.feed(pairs, idx, len(next))
	return true
}

// feed feeds one level's balance equations into the prime battery. The
// int64 row scratch lives in the battery and is recycled, so the
// steady-state feed allocates nothing.
func (s *Solver) feed(pairs []nodePair, idx map[*Node]int, k int) {
	e := s.melim
	if cap(e.intRow) < k {
		e.intRow = make([]int64, k, k+k/2+4)
	}
	row := e.intRow[:k]
	for _, pair := range pairs {
		s.stats.Equations++
		clear(row)
		// A node is the child of exactly one of the pair, so each column
		// is written at most once; addRow skips a row left all zero.
		for _, c := range pair.w.Children {
			if m := c.RedMult(pair.u); m != 0 {
				row[idx[c]] = int64(m)
			}
		}
		for _, c := range pair.u.Children {
			if m := c.RedMult(pair.w); m != 0 {
				row[idx[c]] = -int64(m)
			}
		}
		e.addRow(row)
	}
}

// resolve extracts the positively-oriented null ray, or nil when the system
// is not (or not yet) determined. The covered gate skips extraction when
// some basis class has no red-edge constraint anywhere on its ancestor
// chain: its column is zero in every equation, so the null space has
// dimension ≥ 2 (or, degenerately, the ray would be a unit vector and fail
// the positivity check) — either way the answer is unknown.
//
// Otherwise it certifies the rank decision over the prime battery (growing
// it to the Hadamard-bound size and replaying the consumed equations into
// fresh primes from the tree), evicts unlucky primes against the battery
// consensus, and CRT-reconstructs the exact null ray at corank 1.
// Soundness: every lucky prime sees the exact rank and pivot profile, an
// unlucky prime must divide one of two fixed nonzero minors bounded by the
// Hadamard bound, and the battery holds more primes than those minors admit
// 30-bit divisors — so after eviction the per-prime rays are reductions of
// the one exact primitive ray and the CRT modulus exceeds twice the square
// of its entry bound.
//
// certified=false means the battery could not certify a decision within
// its attempt budget and the caller must delegate this call to the
// from-scratch big.Int solver.
func (s *Solver) resolve() (ray []*big.Rat, certified bool) {
	k := len(s.basis)
	if k >= 2 {
		for _, c := range s.covered {
			if !c {
				return nil, true
			}
		}
	}
	e := s.melim
	// A fresh prime catches up by re-reading the consumed balance rows from
	// the tree. The ancestor chains that expand them over the basis are
	// built on the first growth and shared by every prime this call
	// adopts: the basis cannot move inside one resolve.
	var sol *solution
	defer func() {
		if sol != nil {
			sol.release()
		}
	}()
	replay := func(ps *primeState) {
		if sol == nil {
			sol = &solution{leaves: s.basis}
			sol.chain(s.level)
		}
		sol.replayBalance(s.t, s.level, e, ps)
	}
	for attempt := 0; attempt < 5; attempt++ {
		r := e.maxRank()
		if r >= k {
			return nil, true
		}
		if r < k-1 {
			if len(e.primes) >= e.neededPrimes(false) {
				return nil, true // certified: rank genuinely below k−1
			}
			e.growTo(e.neededPrimes(false), replay)
			continue
		}
		if e.evictUnlucky() > 0 || len(e.primes) < e.neededPrimes(true) {
			e.growTo(e.neededPrimes(true), replay)
			continue
		}
		ray := e.nullRay()
		if ray == nil {
			continue
		}
		if !orientPositive(ray) {
			return nil, true
		}
		return ray, true
	}
	return nil, false
}

// weights folds the basis ray into per-level-0-class weights.
func (s *Solver) weights(ray []*big.Rat) map[*Node]*big.Rat {
	out := make(map[*Node]*big.Rat, len(s.t.Level(0)))
	for i, x := range ray {
		v := s.anc0[i]
		if w, ok := out[v]; ok {
			w.Add(w, x)
		} else {
			out[v] = new(big.Rat).Set(x)
		}
	}
	return out
}

// crossRed reports whether v has a red edge from a class other than its own
// parent. Only such edges produce balance equations, so a class whose whole
// ancestor chain lacks them is unconstrained.
func crossRed(v *Node) bool {
	for _, e := range v.Red {
		if e.Src != v.Parent {
			return true
		}
	}
	return false
}
