package historytree

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"anondyn/internal/dynnet"
)

// TestCountModularMatchesCountEveryLevel pins the witness discipline for
// the from-scratch path: the multi-modular solve must make the identical
// known/unknown decision and return the identical answer as the big.Int
// eliminator at every complete-level prefix of the same tree.
func TestCountModularMatchesCountEveryLevel(t *testing.T) {
	densities := []float64{0.15, 0.4, 0.8}
	for n := 2; n <= 12; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := dynnet.NewRandomConnected(n, densities[seed], seed+1)
			rounds := 3 * n
			run := BuildTree(t, s, LeaderInputs(n), rounds)
			for l := 0; l <= run.Rounds; l++ {
				exact, err := Count(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: Count: %v", n, seed, l, err)
				}
				mod, err := CountModular(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: CountModular: %v", n, seed, l, err)
				}
				if !SameCount(exact, mod) {
					t.Fatalf("n=%d seed=%d level=%d: modular %+v != exact %+v", n, seed, l, mod, exact)
				}
			}
		}
	}
}

// TestFrequenciesModularMatchesEveryLevel is the leaderless counterpart.
func TestFrequenciesModularMatchesEveryLevel(t *testing.T) {
	for n := 2; n <= 10; n++ {
		for seed := int64(0); seed < 2; seed++ {
			s := dynnet.NewRandomConnected(n, 0.4, 300+seed)
			inputs := make([]Input, n)
			for i := range inputs {
				inputs[i].Value = int64(i % 3)
			}
			rounds := 3 * n
			run := BuildTree(t, s, inputs, rounds)
			for l := 0; l <= run.Rounds; l++ {
				exact, err := Frequencies(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: Frequencies: %v", n, seed, l, err)
				}
				mod, err := FrequenciesModular(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: FrequenciesModular: %v", n, seed, l, err)
				}
				if !SameFreq(exact, mod) {
					t.Fatalf("n=%d seed=%d level=%d: modular %+v != exact %+v", n, seed, l, mod, exact)
				}
			}
		}
	}
}

// TestModularQuickEquivalence is the satellite testing/quick property: on
// randomly built trees, the modular and big.Int backends agree on count,
// resolvability, and the level at which the answer first becomes known.
func TestModularQuickEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	prop := func(nRaw, seedRaw uint8, density float64) bool {
		n := 2 + int(nRaw)%10
		density = 0.1 + (density-float64(int(density)))*0.8
		if density < 0.1 || density > 0.9 {
			density = 0.3
		}
		s := dynnet.NewRandomConnected(n, density, int64(seedRaw)+1)
		run, err := Build(s, LeaderInputs(n), 3*n)
		if err != nil {
			return false
		}
		for l := 0; l <= run.Rounds; l++ {
			exact, err1 := Count(run.Tree, l)
			mod, err2 := CountModular(run.Tree, l)
			if (err1 == nil) != (err2 == nil) || !SameCount(exact, mod) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRatReconstructRoundTrip checks Wang reconstruction on exact
// fractions: n/d with |n|, d below the bound always comes back.
func TestRatReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := newModElim(1, 6) // just to force 6 primes into the pool
	_ = e
	for trial := 0; trial < 2000; trial++ {
		num := rng.Int63n(1<<20) - 1<<19
		den := rng.Int63n(1<<20-1) + 1
		acc, mod := new(big.Int), big.NewInt(1)
		t1, t2 := new(big.Int), new(big.Int)
		ok := true
		for i := 0; i < 6; i++ {
			mp := primeAt(i)
			d := mp.redInt64(den)
			if d == 0 {
				ok = false
				break
			}
			x := mp.mul(mp.redInt64(num), mp.inv(d))
			crtCombine(acc, mod, x, mp, t1, t2)
		}
		if !ok {
			continue
		}
		r, got := ratReconstruct(acc, mod, ratBound(mod))
		if !got {
			t.Fatalf("trial %d: reconstruction failed for %d/%d", trial, num, den)
		}
		want := big.NewRat(num, den)
		if r.Cmp(want) != 0 {
			t.Fatalf("trial %d: got %v want %v", trial, r, want)
		}
	}
}

// TestPrimePoolDeterministic pins the battery ordering: primes descend
// from 2^31−1 and are actually prime.
func TestPrimePoolDeterministic(t *testing.T) {
	if p := primeAt(0).p; p != 1<<31-1 {
		t.Fatalf("first battery prime = %d, want 2^31-1", p)
	}
	last := uint64(1 << 31)
	for i := 0; i < 64; i++ {
		p := primeAt(i).p
		if p >= last || p <= 1<<primeBits {
			t.Fatalf("prime %d = %d out of order or range (prev %d)", i, p, last)
		}
		if !isPrime32(p) {
			t.Fatalf("primeAt(%d) = %d is not prime", i, p)
		}
		last = p
	}
	for _, c := range []uint64{1<<31 - 1, 2147483629, 2, 3, 61} {
		if !isPrime32(c) {
			t.Fatalf("isPrime32(%d) = false, want true", c)
		}
	}
	for _, c := range []uint64{1, 4, 1<<31 - 3, 2147483647 * 2} {
		if isPrime32(c) {
			t.Fatalf("isPrime32(%d) = true, want false", c)
		}
	}
}

// TestSolverArithEquivalence runs the incremental solver against the
// from-scratch big.Int Count on the same tree and requires identical
// results and known/unknown transitions at every level — the incremental
// face of the witness discipline.
func TestSolverArithEquivalence(t *testing.T) {
	densities := []float64{0.2, 0.45, 0.7}
	grown := 0 // cases whose battery grew past the 2-prime minimum
	for n := 2; n <= 12; n++ {
		for seed := int64(0); seed < 3; seed++ {
			s := dynnet.NewRandomConnected(n, densities[seed], 40+seed)
			rounds := 3 * n
			run := BuildTree(t, s, LeaderInputs(n), rounds)
			solver := NewSolver()
			for l := 0; l <= run.Rounds; l++ {
				rm, err := solver.CountAt(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: CountAt: %v", n, seed, l, err)
				}
				rb, err := Count(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: big Count: %v", n, seed, l, err)
				}
				if !SameCount(rb, rm) {
					t.Fatalf("n=%d seed=%d level=%d: incremental %+v != big %+v", n, seed, l, rm, rb)
				}
			}
			ms := solver.Stats()
			if ms.WitnessFallbacks != 0 {
				t.Errorf("n=%d seed=%d: unexpected witness fallbacks: %+v", n, seed, ms)
			}
			if ms.PrimesUsed < 2 {
				t.Errorf("n=%d seed=%d: PrimesUsed = %d, want >= 2", n, seed, ms.PrimesUsed)
			}
			if ms.PrimesUsed > 2 {
				grown++
			}
		}
	}
	// The equivalence above covers the primes adopted mid-run, which catch
	// up by replaying the consumed balance rows, only if some battery grows.
	if grown == 0 {
		t.Error("no case grew the battery past 2 primes: the replay went unexercised")
	}
}

// TestSolverModularTruncationRebuild pins reset behavior under the modular
// backend: after a truncation the solver rebuilds, keeps its adopted
// primes, and still matches the from-scratch answer.
func TestSolverModularTruncationRebuild(t *testing.T) {
	n := 8
	s := dynnet.NewRandomConnected(n, 0.4, 11)
	rounds := 3 * n
	run := BuildTree(t, s, LeaderInputs(n), rounds)
	solver := NewSolver()
	if _, err := solver.CountAt(run.Tree, run.Rounds); err != nil {
		t.Fatal(err)
	}
	primesBefore := solver.Stats().PrimesUsed
	run.Tree.TruncateLevels(run.Rounds / 2)
	for l := 0; l <= run.Tree.Depth(); l++ {
		ref, err := Count(run.Tree, l)
		if err != nil {
			t.Fatalf("level %d: Count: %v", l, err)
		}
		inc, err := solver.CountAt(run.Tree, l)
		if err != nil {
			t.Fatalf("level %d: CountAt: %v", l, err)
		}
		if !SameCount(ref, inc) {
			t.Fatalf("level %d after truncation: incremental %+v != reference %+v", l, inc, ref)
		}
	}
	st := solver.Stats()
	if st.Rebuilds == 0 {
		t.Errorf("expected a rebuild after truncation, stats %+v", st)
	}
	if st.PrimesUsed < primesBefore {
		t.Errorf("adopted primes shrank across rebuild: %d -> %d", primesBefore, st.PrimesUsed)
	}
}

// TestReplayBalanceFeedsTheLastConsumedRow pins the catch-up of a battery
// prime adopted mid-run: replayBalance must feed it every row the battery
// consumed, the last one included. Each case feeds the balance rows in
// solveModular's order and stops, as its early stop does, on the row that
// lifts the battery to corank 1 — a row that raises the rank — so a replay
// one row short leaves the fresh prime a rank behind, and the equivalence
// suites would only see it as a witness fallback.
func TestReplayBalanceFeedsTheLastConsumedRow(t *testing.T) {
	raised := 0
	for n := 3; n <= 9; n++ {
		run := BuildTree(t, dynnet.NewRandomConnected(n, 0.4, 5), LeaderInputs(n), 3*n)
		for levels := 1; levels <= run.Rounds; levels++ {
			sol, k, resolvable, err := prepSolution(run.Tree, levels)
			if err != nil {
				t.Fatal(err)
			}
			if !resolvable {
				continue
			}
			e := newModElim(k, 2)
			last := false // the last fed row raised the rank
		collect:
			for l := 0; l < levels; l++ {
				for _, pair := range balancePairs(run.Tree, l) {
					if !sol.fillRow(pair) {
						continue
					}
					before := e.maxRank()
					e.addRow(sol.row)
					last = e.maxRank() > before
					if e.maxRank() >= k-1 {
						break collect
					}
				}
			}
			if !last {
				sol.release()
				continue
			}
			raised++
			e.growTo(len(e.primes)+1, func(ps *primeState) { sol.replayBalance(run.Tree, levels, e, ps) })
			old, fresh := e.primes[0], e.primes[len(e.primes)-1]
			if fresh.rank != old.rank || !slices.Equal(fresh.has, old.has) {
				t.Fatalf("n=%d levels=%d: adopted prime caught up to rank %d (pivots %v), battery has %d (%v) after %d rows",
					n, levels, fresh.rank, fresh.has, old.rank, old.has, e.rowsFed)
			}
			sol.release()
		}
	}
	if raised == 0 {
		t.Fatal("no case ended its feed on a rank-raising row")
	}
}

// crtCombine incrementally merges residue x mod p into the running CRT
// state (acc mod mod): it returns the unique value ≡ acc (mod mod) and
// ≡ x (mod p), modulo mod·p. acc and mod are updated in place; scratch
// big.Ints are supplied by the caller to keep the loop allocation-lean.
func crtCombine(acc, mod *big.Int, x uint64, mp modPrime, t1, t2 *big.Int) {
	t2.SetUint64(mp.p)
	a := t1.Mod(acc, t2).Uint64()            // acc mod p
	mInv := mp.inv(t1.Mod(mod, t2).Uint64()) // mod⁻¹ mod p (distinct primes ⇒ invertible)
	delta := mp.mul(mp.sub(x, a), mInv)      // (x − acc) · mod⁻¹ mod p
	t1.SetUint64(delta)
	acc.Add(acc, t1.Mul(t1, mod))
	mod.Mul(mod, t2)
}
