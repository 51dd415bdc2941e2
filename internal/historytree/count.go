package historytree

import (
	"fmt"
	"math/big"
	"sync"
)

// Count infers process counts from a history tree whose levels
// 0..completeLevels are complete (every process is represented at each of
// those levels and children partition their parents). It plays the role of
// the Counting algorithm of Di Luna–Viglietta (FOCS 2022) that the paper
// invokes as a black box ("CountFromView", Listing 2 line 31).
//
// The solver assigns one unknown cardinality to every node of the deepest
// complete level, expresses every shallower node's cardinality as the sum
// of its level-completeLevels descendants, and collects the red-edge
// balance equations: for classes u, w of a level t < completeLevels, the
// number of round-(t+1) links between P_u and P_w can be counted from
// either side,
//
//	Σ_{c child of w} mult(c ← u)·|P_c|  =  Σ_{c′ child of u} mult(c′ ← w)·|P_c′|.
//
// The true cardinalities always satisfy this homogeneous system, so if its
// null space is one-dimensional the ray is proportional to the truth:
// with a unique leader the ray is normalized by |leader class| = 1, giving
// exact counts; otherwise it is normalized to the smallest positive integer
// vector, giving exact input frequencies. If the null space has higher
// dimension the answer is not yet determined and Known is false — by the
// FOCS 2022 result, O(n) complete levels always suffice.
//
// Count recomputes from scratch on every call; it is the reference
// implementation that the incremental Solver is property-tested against.
func Count(t *Tree, completeLevels int) (CountResult, error) {
	leaders := leaderNodes(t)
	if len(leaders) != 1 {
		return CountResult{}, fmt.Errorf("historytree: %d leader classes at level 0, want 1", len(leaders))
	}
	sol, err := solve(t, completeLevels)
	if err != nil {
		return CountResult{}, err
	}
	if !sol.known {
		return CountResult{}, nil
	}
	res, err := countFromWeights(t, sol.levelZeroWeights(t))
	sol.release()
	return res, err
}

// countFromWeights normalizes a per-level-0-class weight assignment by the
// leader class and converts it to the Generalized Counting answer.
func countFromWeights(t *Tree, weights map[*Node]*big.Rat) (CountResult, error) {
	leaders := leaderNodes(t)
	if len(leaders) != 1 {
		return CountResult{}, fmt.Errorf("historytree: %d leader classes at level 0, want 1", len(leaders))
	}
	leaderWeight := weights[leaders[0]]
	if leaderWeight == nil || leaderWeight.Sign() <= 0 {
		return CountResult{}, fmt.Errorf("historytree: non-positive leader class weight %v", leaderWeight)
	}
	// Scale the ray so the leader class has cardinality exactly 1.
	scale := new(big.Rat).Inv(leaderWeight)
	total := new(big.Rat)
	multiset := make(map[Input]int, len(t.Level(0)))
	w := new(big.Rat)
	for _, v := range t.Level(0) {
		wv := weights[v]
		if wv == nil {
			wv = new(big.Rat)
		}
		w.Mul(wv, scale)
		c, ok := ratInt(w)
		if !ok || c < 0 {
			// The dim-1 ray is proportional to the truth, so this is a
			// defensive check; it can only fire on a malformed tree.
			return CountResult{}, fmt.Errorf("historytree: non-integer class cardinality %v", w)
		}
		multiset[v.Input] = c
		total.Add(total, w)
	}
	n, ok := ratInt(total)
	if !ok || n <= 0 {
		return CountResult{}, fmt.Errorf("historytree: non-integer total %v", total)
	}
	return CountResult{Known: true, N: n, Multiset: multiset}, nil
}

// CountResult is the outcome of Count.
type CountResult struct {
	// Known reports whether the tree determined the answer. When false the
	// caller should extend the tree by more levels and retry ("Unknown" in
	// the paper's pseudocode).
	Known bool
	// N is the total number of processes.
	N int
	// Multiset maps each level-0 input to the number of processes holding
	// it (the Generalized Counting answer).
	Multiset map[Input]int
}

// Frequencies infers input frequencies from a leaderless history tree with
// levels 0..completeLevels complete. The null-space ray determines
// cardinalities only up to scale (leaderless networks cannot count, per
// Di Luna–Viglietta DISC 2023), so the result is the smallest positive
// integer vector: exact frequencies, and a minimal consistent network size
// MinSize of which the true n is a multiple.
func Frequencies(t *Tree, completeLevels int) (FrequencyResult, error) {
	sol, err := solve(t, completeLevels)
	if err != nil {
		return FrequencyResult{}, err
	}
	if !sol.known {
		return FrequencyResult{}, nil
	}
	res, err := frequenciesFromWeights(t, sol.levelZeroWeights(t))
	sol.release()
	return res, err
}

// frequenciesFromWeights converts a per-level-0-class weight assignment to
// the minimal positive integer ray: exact frequencies.
func frequenciesFromWeights(t *Tree, weights map[*Node]*big.Rat) (FrequencyResult, error) {
	// Clear denominators and divide by the gcd to obtain the minimal
	// positive integer ray.
	lcm := big.NewInt(1)
	for _, v := range t.Level(0) {
		if w := weights[v]; w != nil {
			lcm = lcmBig(lcm, w.Denom())
		}
	}
	counts := make(map[Input]*big.Int, len(t.Level(0)))
	gcd := new(big.Int)
	total := new(big.Int)
	zero := new(big.Rat)
	for _, v := range t.Level(0) {
		w := weights[v]
		if w == nil {
			w = zero
		}
		c := new(big.Int).Mul(w.Num(), new(big.Int).Div(lcm, w.Denom()))
		if c.Sign() < 0 {
			return FrequencyResult{}, fmt.Errorf("historytree: negative class weight for input %s", v.Input)
		}
		counts[v.Input] = c
		gcd.GCD(nil, nil, gcd, new(big.Int).Abs(c))
		total.Add(total, c)
	}
	if gcd.Sign() == 0 || total.Sign() <= 0 {
		return FrequencyResult{}, fmt.Errorf("historytree: degenerate leaderless solution")
	}
	res := FrequencyResult{Known: true, Shares: make(map[Input]int, len(counts))}
	for in, c := range counts {
		res.Shares[in] = int(new(big.Int).Div(c, gcd).Int64())
	}
	res.MinSize = int(new(big.Int).Div(total, gcd).Int64())
	return res, nil
}

// FrequencyResult is the outcome of Frequencies.
type FrequencyResult struct {
	// Known mirrors CountResult.Known.
	Known bool
	// Shares maps each input to its share of the smallest positive integer
	// solution; the frequency of input i is Shares[i] / MinSize.
	Shares map[Input]int
	// MinSize is the sum of Shares: the minimal network size consistent
	// with the observations. The true n is a positive multiple of it.
	MinSize int
}

// Resolvable is a cheap necessary condition for the balance system of the
// complete prefix to pin down the counts: every class of the deepest
// complete level must have, somewhere on its ancestor chain (itself
// included), a red edge from a class other than its own parent. A class
// without one appears in no balance equation — its column is identically
// zero — so the null space has dimension ≥ 2 and the rank cannot reach
// k−1. Count and Solver use it to skip elimination on trivially
// undetermined levels; it runs in O(nodes of the prefix).
func Resolvable(t *Tree, completeLevels int) bool {
	if completeLevels < 0 || completeLevels > t.Depth() || len(t.Level(completeLevels)) < 2 {
		return true
	}
	covered := make(map[*Node]bool)
	for l := 1; l <= completeLevels; l++ {
		for _, v := range t.Level(l) {
			covered[v] = covered[v.Parent] || crossRed(v)
		}
	}
	for _, v := range t.Level(completeLevels) {
		if !covered[v] {
			return false
		}
	}
	return true
}

// solution carries the solved ray: a rational weight per node of the
// deepest complete level, plus ancestor chains for evaluating shallower
// nodes. Coefficient vectors over the basis are never materialized per
// node: a node's vector is the 0/1 indicator of its basis descendants,
// read off the ancestor chains on demand.
type solution struct {
	known  bool
	leaves []*Node
	anc    [][]*Node        // anc[l][i] = level-l ancestor of leaf i
	cols   []map[*Node]cols // lazy per-level column lists
	row    []int64          // pooled equation-row scratch
	ray    []*big.Rat
}

// cols lists the basis columns (leaf indices) under one node.
type cols []int32

// vecPool recycles the []int64 equation-row vectors across solve calls.
var vecPool = sync.Pool{New: func() any { return []int64(nil) }}

func getVec(k int) []int64 {
	v := vecPool.Get().([]int64)
	if cap(v) < k {
		return make([]int64, k)
	}
	v = v[:k]
	for i := range v {
		v[i] = 0
	}
	return v
}

// release returns pooled scratch to the pool; the solution must not be
// used for equation evaluation afterwards.
func (s *solution) release() {
	if s.row != nil {
		vecPool.Put(s.row)
		s.row = nil
	}
}

// colsAt returns the node→columns map of one level, materializing it on
// first use so levels above the deepest one actually referenced (the early
// stop in solve) cost nothing.
func (s *solution) colsAt(l int) map[*Node]cols {
	if s.cols[l] == nil {
		m := make(map[*Node]cols, len(s.anc[l]))
		for i, v := range s.anc[l] {
			m[v] = append(m[v], int32(i))
		}
		s.cols[l] = m
	}
	return s.cols[l]
}

// fillRow writes one balance equation over the basis into s.row and
// reports whether any entry is nonzero. A node is the child of exactly one
// of the pair and every column lies under one node of the pair's child
// level, so each column is written at most once.
func (s *solution) fillRow(pair nodePair) bool {
	clear(s.row)
	used := false
	under := s.colsAt(pair.u.Level + 1)
	for _, c := range pair.w.Children {
		if m := c.RedMult(pair.u); m != 0 {
			for _, i := range under[c] {
				s.row[i] = int64(m)
				used = true
			}
		}
	}
	for _, c := range pair.u.Children {
		if m := c.RedMult(pair.w); m != 0 {
			for _, i := range under[c] {
				s.row[i] = -int64(m)
				used = true
			}
		}
	}
	return used
}

// replayBalance catches up ps, a battery prime adopted after e.rowsFed
// rows were fed: it feeds ps the first e.rowsFed nonzero balance rows of
// levels 0..levels-1, in feed order, expanded over the solution's basis.
// Both battery owners grow through it. solveModular fed exactly these
// rows; the incremental Solver fed each level's rows over that level's
// children and lifted them since, and a lift expands a row the same way.
func (s *solution) replayBalance(t *Tree, levels int, e *modElim, ps *primeState) {
	fed := 0
	for l := 0; l < levels; l++ {
		for _, pair := range balancePairs(t, l) {
			if fed == e.rowsFed {
				return
			}
			if s.fillRow(pair) {
				e.feedRow(ps, s.row)
				fed++
			}
		}
	}
}

// balanced checks one balance equation directly on the solved ray.
func (s *solution) balanced(pair nodePair) bool {
	if !s.fillRow(pair) {
		return true
	}
	lhs := new(big.Rat)
	term := new(big.Rat)
	for i, c := range s.row {
		if c == 0 {
			continue
		}
		term.SetInt64(c)
		lhs.Add(lhs, term.Mul(term, s.ray[i]))
	}
	return lhs.Sign() == 0
}

// levelZeroWeights evaluates the ray on every level-0 class.
func (s *solution) levelZeroWeights(t *Tree) map[*Node]*big.Rat {
	out := make(map[*Node]*big.Rat, len(t.Level(0)))
	for i, x := range s.ray {
		v := s.anc[0][i]
		if w, ok := out[v]; ok {
			w.Add(w, x)
		} else {
			out[v] = new(big.Rat).Set(x)
		}
	}
	return out
}

// prepSolution runs the shared prologue of solve and solveModular:
// validation, the Resolvable gate, and (when resolvable) the ancestor
// chains and pooled row scratch that fillRow needs.
func prepSolution(t *Tree, completeLevels int) (sol *solution, k int, resolvable bool, err error) {
	if completeLevels < 0 || completeLevels > t.Depth() {
		return nil, 0, false, fmt.Errorf("historytree: completeLevels %d out of range [0,%d]", completeLevels, t.Depth())
	}
	leaves := t.Level(completeLevels)
	k = len(leaves)
	if k == 0 {
		return nil, 0, false, fmt.Errorf("historytree: empty level %d", completeLevels)
	}
	sol = &solution{leaves: leaves}
	if !Resolvable(t, completeLevels) {
		return sol, k, false, nil // trivially undetermined; skip elimination entirely
	}
	sol.chain(completeLevels)
	return sol, k, true, nil
}

// chain builds the ancestor chains of the solution's leaves, which sit at
// the given level, and the pooled row scratch fillRow needs: O(k) pointer
// hops per level, in place of per-node k-length coefficient vectors
// (O(levels·k²) words).
func (s *solution) chain(level int) {
	k := len(s.leaves)
	s.anc = make([][]*Node, level+1)
	s.anc[level] = s.leaves
	for l := level - 1; l >= 0; l-- {
		a := make([]*Node, k)
		up := s.anc[l+1]
		for i := range a {
			a[i] = up[i].Parent
		}
		s.anc[l] = a
	}
	s.cols = make([]map[*Node]cols, level+1)
	s.row = getVec(k)
}

func solve(t *Tree, completeLevels int) (*solution, error) {
	sol, k, resolvable, err := prepSolution(t, completeLevels)
	if err != nil || !resolvable {
		return sol, err
	}

	// Collect the homogeneous balance system and reduce it incrementally.
	// On a well-formed history tree the truth is a nonzero null vector, so
	// the rank cannot exceed k-1 and we stop as soon as it is reached; on
	// an inconsistent input (levels wrongly assumed complete) the rank may
	// hit k, which we report as undetermined.
	rref := newRREF(k)
collect:
	for l := 0; l < completeLevels; l++ {
		for _, pair := range balancePairs(t, l) {
			if !sol.fillRow(pair) {
				continue
			}
			rref.addInts(sol.row)
			if rref.rank >= k-1 {
				break collect
			}
		}
	}
	if rref.rank != k-1 {
		sol.release()
		return sol, nil // not (or over-) determined
	}
	sol.ray = rref.nullVector()
	// The early stop above skips the remaining equations; verify the
	// candidate ray against every balance pair so that an inconsistent
	// system (levels wrongly assumed complete) is reported as undetermined
	// instead of producing a bogus ray. On a genuine history tree the true
	// cardinalities span the null space, so this verification always
	// passes.
	for l := 0; l < completeLevels; l++ {
		for _, pair := range balancePairs(t, l) {
			if !sol.balanced(pair) {
				sol.release()
				return &solution{}, nil
			}
		}
	}
	// Orient the ray positively: the truth is strictly positive on every
	// leaf (complete-level classes are nonempty). Mixed signs mean the
	// system pinned down a ray that cannot be a cardinality vector; treat
	// that as undetermined rather than wrong.
	if !orientPositive(sol.ray) {
		sol.release()
		return &solution{}, nil
	}
	sol.known = true
	return sol, nil
}

// nodePair is an unordered pair of same-level nodes linked by at least one
// red edge through the next level.
type nodePair struct {
	u, w *Node
}

// balancePairs enumerates the distinct pairs {u, w} of level-l nodes, u≠w,
// such that some child of one has a red edge from the other. Results are
// memoized on the tree and invalidated by any structural mutation, so the
// repeated enumerations of the solve paths (collect, battery replay,
// verification, and replayed from-scratch calls on a quiescent tree) pay
// for each level once. Callers must not retain the slice across mutations.
func balancePairs(t *Tree, l int) []nodePair {
	if t.pairsMut != t.mut {
		t.pairsLevel = t.pairsLevel[:0]
		t.pairsMut = t.mut
	}
	for len(t.pairsLevel) <= l {
		t.pairsLevel = append(t.pairsLevel, nil)
	}
	if p := t.pairsLevel[l]; p != nil {
		return p
	}
	p := computeBalancePairs(t, l)
	if p == nil {
		p = []nodePair{}
	}
	t.pairsLevel[l] = p
	return p
}

func computeBalancePairs(t *Tree, l int) []nodePair {
	seen := make(map[[2]int]bool)
	var out []nodePair
	for _, c := range t.Level(l + 1) {
		w := c.Parent
		for _, e := range c.Red {
			u := e.Src
			if u == w {
				continue
			}
			key := [2]int{u.ID, w.ID}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if !seen[key] {
				seen[key] = true
				out = append(out, nodePair{u: u, w: w})
			}
		}
	}
	return out
}

// rref maintains a reduced row-echelon basis of the row space, supporting
// incremental row insertion and null-vector extraction. Row cells are
// flat-backed (one allocation per row) and the multiply scratches are
// reused across calls instead of allocating a big.Rat per cell.
type rref struct {
	cols  int
	rows  [][]*big.Rat // reduced rows, each with leading coefficient 1
	pivot []int        // pivot column of each row
	rank  int
	has   []bool // has[c] = some row pivots at column c

	tmp, factor big.Rat // scratch
}

func newRREF(cols int) *rref {
	return &rref{cols: cols, has: make([]bool, cols)}
}

// addInts converts an integer row to rationals and adds it; the input is
// not retained.
func (r *rref) addInts(ints []int64) {
	backing := make([]big.Rat, r.cols)
	row := make([]*big.Rat, r.cols)
	for i := range row {
		row[i] = &backing[i]
		if ints[i] != 0 {
			row[i].SetInt64(ints[i])
		}
	}
	r.add(row)
}

// add reduces row against the basis and inserts it if independent. The row
// is consumed.
func (r *rref) add(row []*big.Rat) {
	for i, br := range r.rows {
		p := r.pivot[i]
		if row[p].Sign() == 0 {
			continue
		}
		r.factor.Set(row[p])
		for c := 0; c < r.cols; c++ {
			if br[c].Sign() == 0 {
				continue
			}
			r.tmp.Mul(&r.factor, br[c])
			row[c].Sub(row[c], &r.tmp)
		}
	}
	p := -1
	for c := 0; c < r.cols; c++ {
		if row[c].Sign() != 0 {
			p = c
			break
		}
	}
	if p < 0 {
		return // dependent
	}
	r.factor.Inv(row[p])
	for c := p; c < r.cols; c++ {
		row[c].Mul(row[c], &r.factor)
	}
	// Back-eliminate the new pivot from existing rows.
	for _, br := range r.rows {
		if br[p].Sign() == 0 {
			continue
		}
		r.factor.Set(br[p])
		for c := 0; c < r.cols; c++ {
			if row[c].Sign() == 0 {
				continue
			}
			r.tmp.Mul(&r.factor, row[c])
			br[c].Sub(br[c], &r.tmp)
		}
	}
	r.rows = append(r.rows, row)
	r.pivot = append(r.pivot, p)
	r.has[p] = true
	r.rank++
}

// nullVector returns a nonzero vector of the (one-dimensional) null space.
// It must only be called when rank == cols-1.
func (r *rref) nullVector() []*big.Rat {
	free := -1
	for c := 0; c < r.cols; c++ {
		if !r.has[c] {
			free = c
			break
		}
	}
	out := make([]*big.Rat, r.cols)
	for c := range out {
		out[c] = new(big.Rat)
	}
	out[free].SetInt64(1)
	for i, row := range r.rows {
		out[r.pivot[i]].Neg(row[free])
	}
	return out
}

// leaderNodes returns the level-0 nodes whose input has the leader flag.
func leaderNodes(t *Tree) []*Node {
	var out []*Node
	for _, v := range t.Level(0) {
		if v.Input.Leader {
			out = append(out, v)
		}
	}
	return out
}

// ratInt converts an exact rational to int if it is integral.
func ratInt(r *big.Rat) (int, bool) {
	if !r.IsInt() {
		return 0, false
	}
	num := r.Num()
	if !num.IsInt64() {
		return 0, false
	}
	return int(num.Int64()), true
}

// lcmBig returns lcm(a, b) for positive big ints.
func lcmBig(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, g)
	return out.Mul(out, b)
}
