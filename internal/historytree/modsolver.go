package historytree

import (
	"fmt"
	"math/big"
	"sync"
)

// CountModular is the multi-modular equivalent of Count: the same balance
// system, eliminated as residues over a certified prime battery instead of
// fraction-free big.Int rows, with CRT + rational recovery of the null
// ray. Answers are identical to Count's — the recovered ray is verified
// exactly against every balance equation, and unknown-decisions are
// certified by the Hadamard-bound battery sizing. In the measure-zero case
// where certification cannot converge it silently delegates to Count.
func CountModular(t *Tree, completeLevels int) (CountResult, error) {
	leaders := leaderNodes(t)
	if len(leaders) != 1 {
		return CountResult{}, fmt.Errorf("historytree: %d leader classes at level 0, want 1", len(leaders))
	}
	sol, ok, err := solveModular(t, completeLevels)
	if err != nil {
		return CountResult{}, err
	}
	if !ok {
		return Count(t, completeLevels) // witness fallback
	}
	if !sol.known {
		return CountResult{}, nil
	}
	res, err := countFromWeights(t, sol.levelZeroWeights(t))
	sol.release()
	return res, err
}

// FrequenciesModular is the multi-modular equivalent of Frequencies.
func FrequenciesModular(t *Tree, completeLevels int) (FrequencyResult, error) {
	sol, ok, err := solveModular(t, completeLevels)
	if err != nil {
		return FrequencyResult{}, err
	}
	if !ok {
		return Frequencies(t, completeLevels) // witness fallback
	}
	if !sol.known {
		return FrequencyResult{}, nil
	}
	res, err := frequenciesFromWeights(t, sol.levelZeroWeights(t))
	sol.release()
	return res, err
}

// modElimPool recycles from-scratch battery states (and their row
// freelists) across CountModular/FrequenciesModular calls.
var modElimPool = sync.Pool{New: func() any { return newModElim(0, 0) }}

// solveModular mirrors solve over the modular backend. ok=false means the
// battery failed to certify within its attempt budget and the caller must
// fall back to the big.Int witness; it does not mean "unknown".
func solveModular(t *Tree, completeLevels int) (*solution, bool, error) {
	sol, k, resolvable, err := prepSolution(t, completeLevels)
	if err != nil || !resolvable {
		return sol, true, err
	}

	e := modElimPool.Get().(*modElim)
	defer modElimPool.Put(e)
	e.reset(k)
	e.growTo(2, nil)

	// Collect and feed the balance system, stopping as soon as some prime
	// reaches corank 1 — the same early stop as solve, and sound for the
	// same reason: the candidate ray is verified against every equation
	// below.
collect:
	for l := 0; l < completeLevels; l++ {
		for _, pair := range balancePairs(t, l) {
			if !sol.fillRow(pair) {
				continue
			}
			e.addRow(sol.row)
			if e.maxRank() >= k-1 {
				break collect
			}
		}
	}

	replay := func(ps *primeState) { sol.replayBalance(t, completeLevels, e, ps) }

	var ray []*big.Rat
	free := -1
	for attempt := 0; attempt < 5 && ray == nil; attempt++ {
		r := e.maxRank()
		if r >= k {
			// Full rank mod some prime ⇒ full rational rank ⇒ the system
			// admits no nonzero solution; solve reports the same (its
			// candidate from any subset fails verification).
			sol.release()
			return sol, true, nil
		}
		if r < k-1 {
			need := e.neededPrimes(false)
			if len(e.primes) >= need {
				// Certified: some battery prime is lucky, so the true rank
				// really is below k−1 and the answer is not determined yet.
				sol.release()
				return sol, true, nil
			}
			e.growTo(need, replay)
			continue
		}
		if e.evictUnlucky() > 0 || len(e.primes) < e.neededPrimes(true) {
			e.growTo(e.neededPrimes(true), replay)
			continue
		}
		free = e.freeColumn()
		ray = e.nullRay()
	}
	if ray == nil {
		sol.release()
		return sol, false, nil
	}
	sol.ray = ray

	// Verify the reconstructed ray against every balance pair — the same
	// pass solve runs, but over residues: the per-prime ray residues are
	// read off the battery bases, and a violated equation's dot product is
	// a nonzero integer bounded by k·rowMax·H, which cannot vanish modulo
	// the whole certified battery (its modulus exceeds 2H² ≥ that bound).
	// Rows whose coefficients exceed the fed bound — which the Hadamard
	// sizing was computed from — fall back to the exact big.Rat check.
	// Per-node residue sums make each pair cost O(children·primes) instead
	// of O(k·primes).
	np := len(e.primes)
	resid := make([][]uint64, np)
	for i := range e.primes {
		resid[i] = make([]uint64, k)
		e.primes[i].rayResidues(resid[i], free)
	}
	sums := make(map[*Node][]uint64, k)
	sumBacking := make([]uint64, 0, k*np)
	acc := make([]uint64, np)
	for l := 0; l < completeLevels; l++ {
		pairs := balancePairs(t, l)
		if len(pairs) == 0 {
			continue
		}
		clear(sums)
		sumBacking = sumBacking[:0]
		for v, cs := range sol.colsAt(l + 1) {
			start := len(sumBacking)
			for pi := 0; pi < np; pi++ {
				var raw uint64
				for _, i := range cs {
					raw += resid[pi][i]
				}
				sumBacking = append(sumBacking, e.primes[pi].mp.red(raw))
			}
			sums[v] = sumBacking[start : start+np]
		}
		for _, pair := range pairs {
			for pi := range acc {
				acc[pi] = 0
			}
			overflow := false
			for side := 0; side < 2 && !overflow; side++ {
				from, other := pair.w, pair.u
				if side == 1 {
					from, other = pair.u, pair.w
				}
				for _, c := range from.Children {
					m := c.RedMult(other)
					if m == 0 {
						continue
					}
					if int64(m) > e.maxMult {
						overflow = true
						break
					}
					sv, ok := sums[c]
					if !ok {
						// A child with no basis descendants contributes
						// nothing — the same silent drop fillRow performs on
						// prefixes wrongly assumed complete (reachable only
						// through full-information views, never through the
						// congested protocol's completed VHT levels).
						continue
					}
					for pi := 0; pi < np; pi++ {
						mp := e.primes[pi].mp
						term := mp.mul(mp.red(uint64(m)), sv[pi])
						if side == 0 {
							acc[pi] = mp.red(acc[pi] + term)
						} else {
							acc[pi] = mp.sub(acc[pi], term)
						}
					}
				}
			}
			if overflow {
				// Equation coefficients exceed the Hadamard bound the battery
				// was sized for; check it exactly instead.
				if !sol.balanced(pair) {
					sol.release()
					return &solution{}, true, nil
				}
				continue
			}
			for pi := 0; pi < np; pi++ {
				if acc[pi] != 0 {
					sol.release()
					return &solution{}, true, nil
				}
			}
		}
	}
	if !orientPositive(sol.ray) {
		sol.release()
		return &solution{}, true, nil
	}
	sol.known = true
	return sol, true, nil
}

// orientPositive flips the ray to its positive orientation in place and
// reports whether every entry is strictly positive afterwards — the shared
// cardinality-vector check of all four solve paths.
func orientPositive(ray []*big.Rat) bool {
	sign := 0
	for _, x := range ray {
		if s := x.Sign(); s != 0 {
			sign = s
			break
		}
	}
	if sign < 0 {
		for _, x := range ray {
			x.Neg(x)
		}
	}
	for _, x := range ray {
		if x.Sign() <= 0 {
			return false
		}
	}
	return true
}
