package historytree

import (
	"math"
	"math/big"
)

// modElim is the incremental Solver's elimination state: it maintains the
// reduced row-echelon basis of the balance equations as residues over a
// battery of word-sized primes instead of as ever-growing big.Int rows.
// Each prime keeps its own fully reduced, pivot-normalized basis in
// []uint64 rows; the inner multiply-subtract loop is Barrett-reduced
// integer arithmetic with no allocation. Exactness is recovered at
// resolution time: per-prime null rays are CRT-combined and rationally
// reconstructed, and the battery is sized under a Hadamard bound so that
// unlucky primes (rank drop or pivot drift mod p) cannot corrupt either
// the answer or the decision that there is no answer yet. See DESIGN.md
// decision 12.
//
// It supports the two operations the incremental solver needs — adding a
// row, and lifting every row onto a refined variable set — plus the
// battery-management steps (unlucky-prime eviction, certified growth).
type modElim struct {
	cols   int
	primes []primeState

	// nextPrime indexes the global battery ordering: every prime ever
	// adopted gets the next index, and evicted primes never return.
	nextPrime int

	// rowsFed counts addRow calls that carried a nonzero row — the replay
	// length a fresh prime must consume to catch up.
	rowsFed int
	// maxMult is the largest |coefficient| ever fed; together with cols it
	// bounds every minor of the (expanded) equation matrix via Hadamard.
	maxMult int64

	// evictions and crtRecons are observability counters surfaced through
	// SolverStats.
	evictions int
	crtRecons int

	scratch  []uint64   // residue-conversion scratch, len == cols
	intRow   []int64    // int64 row scratch for owners that need one
	freeRows [][]uint64 // row freelist recycled across lifts and resets
	fcScrat  []int      // firstChild scratch for lift
}

// primeState is one prime's reduced row-echelon basis. Rows are fully
// reduced and pivot-normalized (the pivot entry is 1), so the basis of a
// given row space is unique — which is what makes cross-prime pivot
// profiles comparable and per-prime null rays consistent reductions of
// the one exact rational ray.
type primeState struct {
	mp    modPrime
	idx   int // global battery index, for eviction bookkeeping
	rows  [][]uint64
	pivot []int
	rank  int
	has   []bool
}

// newModElim returns an empty battery over cols variables with n primes.
func newModElim(cols, nprimes int) *modElim {
	e := &modElim{cols: cols, scratch: make([]uint64, cols)}
	for i := 0; i < nprimes; i++ {
		e.adoptPrime(nil)
	}
	return e
}

// adoptPrime appends the next unused battery prime. When feed is non-nil
// it is called to replay the consumed equations into the fresh state.
func (e *modElim) adoptPrime(feed func(ps *primeState)) {
	ps := primeState{mp: primeAt(e.nextPrime), idx: e.nextPrime, has: make([]bool, e.cols)}
	e.nextPrime++
	e.primes = append(e.primes, ps)
	if feed != nil {
		feed(&e.primes[len(e.primes)-1])
	}
}

// getRow draws a row of length n from the freelist, with headroom so rows
// survive moderate column growth across lifts.
func (e *modElim) getRow(n int) []uint64 {
	for len(e.freeRows) > 0 {
		r := e.freeRows[len(e.freeRows)-1]
		e.freeRows = e.freeRows[:len(e.freeRows)-1]
		if cap(r) >= n {
			return r[:n]
		}
	}
	return make([]uint64, n, n+n/2+4)
}

// putRow returns a row to the freelist.
func (e *modElim) putRow(r []uint64) {
	e.freeRows = append(e.freeRows, r)
}

// addRow feeds one integer balance equation to every prime. The row is
// not retained; a zero row is ignored.
func (e *modElim) addRow(row []int64) {
	used := false
	for _, v := range row {
		if v != 0 {
			used = true
			if v < 0 {
				v = -v
			}
			if v > e.maxMult {
				e.maxMult = v
			}
		}
	}
	if !used {
		return
	}
	e.rowsFed++
	for i := range e.primes {
		e.feedRow(&e.primes[i], row)
	}
}

// feedRow reduces one integer row into a single prime's basis.
func (e *modElim) feedRow(ps *primeState, row []int64) {
	mp := ps.mp
	w := e.scratch[:e.cols]
	for c, v := range row {
		w[c] = mp.redInt64(v)
	}
	ps.addResidues(w, e)
}

// addResidues reduces a residue row (backed by the caller's scratch)
// against the basis and inserts it if independent. The hot path — the
// multiply-subtract loops — allocates nothing; only an insertion copies
// the row into freelist-recycled storage.
func (ps *primeState) addResidues(w []uint64, e *modElim) {
	mp := ps.mp
	for i, br := range ps.rows {
		f := w[ps.pivot[i]]
		if f == 0 {
			continue
		}
		// w ← w − f·br; br's pivot entry is 1, so this zeroes w at it.
		for c, bv := range br {
			if bv != 0 {
				w[c] = mp.sub(w[c], mp.mul(f, bv))
			}
		}
	}
	p := -1
	for c, v := range w {
		if v != 0 {
			p = c
			break
		}
	}
	if p < 0 {
		return // dependent mod this prime
	}
	inv := mp.inv(w[p])
	for c := p; c < len(w); c++ {
		if w[c] != 0 {
			w[c] = mp.mul(w[c], inv)
		}
	}
	// Back-eliminate the new pivot from existing rows to keep the basis
	// fully reduced (columns before p are zero in w).
	for _, br := range ps.rows {
		f := br[p]
		if f == 0 {
			continue
		}
		for c := p; c < len(w); c++ {
			if w[c] != 0 {
				br[c] = mp.sub(br[c], mp.mul(f, w[c]))
			}
		}
	}
	kept := e.getRow(len(w))
	copy(kept, w)
	ps.rows = append(ps.rows, kept)
	ps.pivot = append(ps.pivot, p)
	ps.has[p] = true
	ps.rank++
}

// lift maps every prime's basis onto a refined variable set: old column j
// becomes the block of new columns c with parentIdx[c] == j. Old equations
// over class cardinalities hold verbatim when each cardinality is replaced
// by the sum of its children's, so every lifted row is a valid equation
// over the new variables. Each row's pivot moves to the first child of its
// old pivot, and reduction, independence, and rank are preserved per prime
// (lifting is linear and injective on row vectors). Every old pivot column
// must have at least one child (the caller checks all columns).
func (e *modElim) lift(parentIdx []int32, newCols int) {
	if cap(e.fcScrat) < e.cols {
		e.fcScrat = make([]int, e.cols)
	}
	firstChild := e.fcScrat[:e.cols]
	for j := range firstChild {
		firstChild[j] = -1
	}
	for c := newCols - 1; c >= 0; c-- {
		firstChild[parentIdx[c]] = int(c)
	}
	for pi := range e.primes {
		ps := &e.primes[pi]
		for i, old := range ps.rows {
			lifted := e.getRow(newCols)
			for c := 0; c < newCols; c++ {
				lifted[c] = old[parentIdx[c]]
			}
			e.putRow(old)
			ps.rows[i] = lifted
			ps.pivot[i] = firstChild[ps.pivot[i]]
		}
		if cap(ps.has) >= newCols {
			ps.has = ps.has[:newCols]
			for c := range ps.has {
				ps.has[c] = false
			}
		} else {
			ps.has = make([]bool, newCols)
		}
		for _, p := range ps.pivot {
			ps.has[p] = true
		}
	}
	e.cols = newCols
	if cap(e.scratch) < newCols {
		e.scratch = make([]uint64, newCols, newCols+newCols/2+4)
	}
	e.scratch = e.scratch[:newCols]
}

// maxRank returns the largest rank any battery prime achieved. Ranks mod p
// never exceed the true rational rank, so the maximum is the best lower
// bound the battery has.
func (e *modElim) maxRank() int {
	r := 0
	for i := range e.primes {
		if e.primes[i].rank > r {
			r = e.primes[i].rank
		}
	}
	return r
}

// hadamardLog2 bounds log2 of any minor of the (expanded) balance-equation
// matrix: entries are single red-edge multiplicities ≤ maxMult, and minors
// have order ≤ cols, so |minor| ≤ maxMult^k · k^(k/2) (Hadamard). The +1
// absorbs float rounding.
func hadamardLog2(cols int, maxMult int64) float64 {
	b := float64(maxMult)
	if b < 2 {
		b = 2
	}
	k := float64(cols)
	if k < 2 {
		k = 2
	}
	return k*(math.Log2(b)+0.5*math.Log2(k)) + 1
}

// rankCertPrimes is the battery size that certifies rank decisions: a
// prime is rank- or profile-unlucky only if it divides one fixed nonzero
// minor M of the equation matrix, and |M| ≤ 2^log2H admits at most
// log2H/primeBits prime divisors above 2^primeBits — so with one more
// prime than that, some battery prime is lucky and the consensus
// (max rank, leftmost pivot profile) is exact.
func rankCertPrimes(log2H float64) int {
	return int(log2H/primeBits) + 1
}

// crtPrimes is the battery size whose product modulus M exceeds 2·H²,
// which rational reconstruction needs: the exact ray's entries are ratios
// of minors, so numerator and denominator are each bounded by H.
func crtPrimes(log2H float64) int {
	n := int((2*log2H+2)/primeBits) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// neededPrimes returns the certified battery size for the current system.
func (e *modElim) neededPrimes(forRay bool) int {
	h := hadamardLog2(e.cols, e.maxMult)
	n := rankCertPrimes(h)
	if forRay {
		if c := crtPrimes(h); c > n {
			n = c
		}
	}
	return n
}

// compareProfiles orders pivot profiles by column rank profile: the
// profile with a pivot at the first differing column is smaller. Mod-p
// dependencies only push pivots rightward, so the exact profile is the
// minimum over lucky primes.
func compareProfiles(a, b []bool) int {
	for c := range a {
		if a[c] != b[c] {
			if a[c] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// evictUnlucky removes primes whose (rank, pivot profile) falls short of
// the battery consensus — the max rank and, among max-rank primes, the
// leftmost pivot profile. It returns how many were evicted. Freed rows go
// back to the freelist.
func (e *modElim) evictUnlucky() int {
	r := e.maxRank()
	var best []bool
	for i := range e.primes {
		ps := &e.primes[i]
		if ps.rank == r && (best == nil || compareProfiles(ps.has, best) < 0) {
			best = ps.has
		}
	}
	kept := e.primes[:0]
	evicted := 0
	for i := range e.primes {
		ps := e.primes[i]
		if ps.rank == r && compareProfiles(ps.has, best) == 0 {
			kept = append(kept, ps)
			continue
		}
		for _, row := range ps.rows {
			e.putRow(row)
		}
		evicted++
	}
	e.primes = kept
	e.evictions += evicted
	return evicted
}

// growTo extends the battery to n primes, replaying the consumed
// equations into each fresh prime via feed.
func (e *modElim) growTo(n int, feed func(ps *primeState)) {
	for len(e.primes) < n {
		e.adoptPrime(feed)
	}
}

// freeColumn returns the unique non-pivot column at corank 1 (all primes
// agree on the profile after evictUnlucky).
func (e *modElim) freeColumn() int {
	for c, h := range e.primes[0].has {
		if !h {
			return c
		}
	}
	return -1
}

// nullRay reconstructs the exact rational null ray at consensus rank
// cols−1: per-prime rays (free column normalized to 1) are CRT-combined
// column by column (Garner, with the prefix moduli and their inverses
// precomputed once per battery) and rationally reconstructed under the
// Hadamard bound. It returns nil if reconstruction fails, which a
// certified battery makes unreachable — callers treat that as a witness
// fallback, not an answer.
func (e *modElim) nullRay() []*big.Rat {
	free := e.freeColumn()
	if free < 0 {
		return nil
	}
	e.crtRecons++
	np := len(e.primes)
	// Garner precomputation shared by every column: prefix moduli
	// P_i = Π_{j<i} p_j, their inverses mod p_i, and the per-prime ray
	// residue vectors.
	prefix := make([]*big.Int, np)
	pinv := make([]uint64, np)
	resid := make([][]uint64, np)
	t1, t2 := new(big.Int), new(big.Int)
	run := big.NewInt(1)
	for i := range e.primes {
		mp := e.primes[i].mp
		prefix[i] = new(big.Int).Set(run)
		t2.SetUint64(mp.p)
		pinv[i] = mp.inv(t1.Mod(run, t2).Uint64())
		run.Mul(run, t2)
		resid[i] = make([]uint64, e.cols)
		e.primes[i].rayResidues(resid[i], free)
	}
	bound := ratBound(run)
	out := make([]*big.Rat, e.cols)
	out[free] = new(big.Rat).SetInt64(1)
	acc := new(big.Int)
	for c := 0; c < e.cols; c++ {
		if c == free {
			continue
		}
		acc.SetInt64(0)
		for i := range e.primes {
			mp := e.primes[i].mp
			t2.SetUint64(mp.p)
			a := t1.Mod(acc, t2).Uint64()
			delta := mp.mul(mp.sub(resid[i][c], a), pinv[i])
			if delta != 0 {
				t1.SetUint64(delta)
				acc.Add(acc, t1.Mul(t1, prefix[i]))
			}
		}
		r, ok := ratReconstruct(acc, run, bound)
		if !ok {
			return nil
		}
		out[c] = r
	}
	return out
}

// rayResidues writes the whole null-ray residue vector (free column
// normalized to 1) into dst, for the residue-based verification pass.
func (ps *primeState) rayResidues(dst []uint64, free int) {
	for c := range dst {
		dst[c] = 0
	}
	dst[free] = 1
	for i, p := range ps.pivot {
		dst[p] = ps.mp.neg(ps.rows[i][free])
	}
}

// reset returns the battery to an empty basis over cols variables,
// recycling row storage but keeping the adopted primes (their luck is
// independent of the system, and keeping them avoids re-probing).
func (e *modElim) reset(cols int) {
	for i := range e.primes {
		ps := &e.primes[i]
		for _, row := range ps.rows {
			e.putRow(row)
		}
		ps.rows = ps.rows[:0]
		ps.pivot = ps.pivot[:0]
		ps.rank = 0
		if cap(ps.has) >= cols {
			ps.has = ps.has[:cols]
			for c := range ps.has {
				ps.has[c] = false
			}
		} else {
			ps.has = make([]bool, cols)
		}
	}
	e.cols = cols
	e.rowsFed = 0
	e.maxMult = 0
	if cap(e.scratch) < cols {
		e.scratch = make([]uint64, cols)
	}
	e.scratch = e.scratch[:cols]
}
