package historytree

import (
	"math/big"
	"math/bits"
	"sync"
)

// Modular arithmetic substrate for the multi-modular counting solver: a
// battery of word-sized primes with Barrett reduction, plus the CRT and
// rational-reconstruction steps that lift per-prime null rays back to the
// exact rational ray. See DESIGN.md decision 12.
//
// Primes are taken just below 2^31 so that a product of two residues fits
// in a uint64 and Barrett reduction needs only one 64×64→128 multiply and
// one subtraction — the inner multiply-subtract loop of the elimination
// does no division and no allocation.

// primeBits is the guaranteed size of every battery prime: each prime
// exceeds 2^primeBits, which is what the Hadamard-bound battery sizing
// divides by.
const primeBits = 30

// modPrime is one battery prime with its precomputed Barrett constant.
type modPrime struct {
	p uint64 // the prime, 2^30 < p < 2^31
	m uint64 // ⌊2^64 / p⌋, the Barrett multiplier
}

// newModPrime precomputes the Barrett constant for p.
func newModPrime(p uint64) modPrime {
	m, _ := bits.Div64(1, 0, p) // ⌊2^64 / p⌋; fits in 64 bits since p ≥ 2
	return modPrime{p: p, m: m}
}

// red reduces x < 2^62 modulo p via Barrett: the quotient estimate
// q = ⌊x·m / 2^64⌋ is off by at most one, fixed by a conditional subtract.
func (mp modPrime) red(x uint64) uint64 {
	q, _ := bits.Mul64(x, mp.m)
	r := x - q*mp.p
	if r >= mp.p {
		r -= mp.p
	}
	return r
}

// mul multiplies two residues (both < p < 2^31, so the product is < 2^62).
func (mp modPrime) mul(a, b uint64) uint64 { return mp.red(a * b) }

// sub subtracts residues.
func (mp modPrime) sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + mp.p - b
}

// neg negates a residue.
func (mp modPrime) neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return mp.p - a
}

// redInt64 reduces a (possibly negative) int64 coefficient.
func (mp modPrime) redInt64(v int64) uint64 {
	if v >= 0 {
		return mp.red(uint64(v))
	}
	return mp.neg(mp.red(uint64(-v)))
}

// inv returns the multiplicative inverse of a ≠ 0 via the extended
// Euclidean algorithm on int64 (safe: p < 2^31).
func (mp modPrime) inv(a uint64) uint64 {
	t, newT := int64(0), int64(1)
	r, newR := int64(mp.p), int64(a)
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if t < 0 {
		t += int64(mp.p)
	}
	return uint64(t)
}

// primePool generates battery primes deterministically, descending from
// 2^31−1 (itself prime), and memoizes them so every solver in the process
// shares one battery ordering. Guarded by a mutex: solvers are
// single-threaded but many may run concurrently.
var primePool struct {
	sync.Mutex
	primes []modPrime
	next   uint64
}

// primeAt returns the i-th battery prime (0-based), generating further
// primes on demand.
func primeAt(i int) modPrime {
	primePool.Lock()
	defer primePool.Unlock()
	if primePool.next == 0 {
		primePool.next = 1<<31 - 1
	}
	for len(primePool.primes) <= i {
		for !isPrime32(primePool.next) {
			primePool.next -= 2
		}
		if primePool.next <= 1<<primeBits {
			// Unreachable in practice: there are ~50M primes in
			// (2^30, 2^31), far more than any battery uses.
			panic("historytree: prime battery exhausted")
		}
		primePool.primes = append(primePool.primes, newModPrime(primePool.next))
		primePool.next -= 2
	}
	return primePool.primes[i]
}

// isPrime32 is a deterministic Miller–Rabin test, exact for all n < 2^32
// with witness set {2, 7, 61}.
func isPrime32(n uint64) bool {
	if n < 2 || n%2 == 0 {
		return n == 2
	}
	d, s := n-1, 0
	for d%2 == 0 {
		d, s = d/2, s+1
	}
witness:
	for _, a := range [...]uint64{2, 7, 61} {
		if a%n == 0 {
			continue
		}
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < s-1; i++ {
			x = mulMod64(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// powMod computes a^e mod n for n < 2^32.
func powMod(a, e, n uint64) uint64 {
	a %= n
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = mulMod64(r, a, n)
		}
		a = mulMod64(a, a, n)
		e >>= 1
	}
	return r
}

// mulMod64 multiplies modulo n < 2^32 (products fit in uint64).
func mulMod64(a, b, n uint64) uint64 { return a * b % n }

// ratBound returns ⌊√(M/2)⌋, the numerator/denominator bound under which
// rational reconstruction modulo M is unique. Callers solving many
// residues against the same modulus compute it once.
func ratBound(M *big.Int) *big.Int {
	bound := new(big.Int).Rsh(M, 1)
	return bound.Sqrt(bound)
}

// ratReconstruct recovers the unique rational n/d with |n|, d ≤ bound
// (= ⌊√(M/2)⌋), d > 0, gcd(d, M) = 1 and n ≡ c·d (mod M), if one exists —
// Wang's rational-reconstruction algorithm (half-extended Euclid on
// (M, c), stopping at the first remainder below the bound). Under the
// solver's Hadamard-bound battery sizing the true ray entry satisfies the
// size bound, so reconstruction succeeds and is unique.
func ratReconstruct(c, M, bound *big.Int) (*big.Rat, bool) {
	if c.Sign() == 0 {
		return new(big.Rat), true
	}
	r0 := new(big.Int).Set(M)
	r1 := new(big.Int).Mod(c, M)
	t0, t1 := new(big.Int), new(big.Int).SetInt64(1)
	q, tmp := new(big.Int), new(big.Int)
	for r1.Sign() != 0 && r1.Cmp(bound) > 0 {
		q.Quo(r0, r1)
		// (r0, r1) ← (r1, r0 − q·r1), same for (t0, t1). The remainders
		// stay non-negative; the signed numerator is r1·sign(t1) at exit.
		tmp.Mul(q, r1)
		r0.Sub(r0, tmp)
		r0, r1 = r1, r0
		tmp.Mul(q, t1)
		t0.Sub(t0, tmp)
		t0, t1 = t1, t0
	}
	if r1.Sign() == 0 || t1.Sign() == 0 {
		return nil, false
	}
	if t1.Sign() < 0 {
		t1.Neg(t1)
		r1.Neg(r1)
	}
	if t1.Cmp(bound) > 0 {
		return nil, false
	}
	num := new(big.Int).Set(r1)
	if tmp.GCD(nil, nil, r1.Abs(r1), t1); tmp.Cmp(oneInt) != 0 {
		return nil, false
	}
	return new(big.Rat).SetFrac(num, t1), true
}

var oneInt = big.NewInt(1)
