package historytree_test

import (
	"testing"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
)

// FuzzSolverArithmetic fuzzes the witness discipline of DESIGN.md decision
// 12: on an arbitrary (n, density, seed, leaderless) protocol tree, the
// multi-modular solvers — from-scratch and incremental — must agree with
// the from-scratch big.Int eliminator: same errors, same known/unknown
// decision, and the same answer at every complete-level prefix. Crashers
// land in testdata/fuzz/FuzzSolverArithmetic/ and are replayed by plain
// `go test` once checked in.
// FuzzBatchedRefine fuzzes the batched SoA refinement pass against the
// witness refiner: on an arbitrary random connected schedule with arbitrary
// inputs, the two builds must produce byte-identical canonical forms,
// identical node IDs level by level, and identical cardinalities. The mult
// multiplier stretches link multiplicities toward (and past) the packed
// 32-bit representation so the wide-multiplicity fallback is in scope.
// Crashers land in testdata/fuzz/FuzzBatchedRefine/.
func FuzzBatchedRefine(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1), uint32(1))
	f.Add(uint8(7), uint8(9), uint8(128), int64(42), uint32(1))
	f.Add(uint8(9), uint8(12), uint8(255), int64(-11), uint32(1<<20))
	f.Add(uint8(4), uint8(6), uint8(60), int64(7), uint32(0))
	f.Fuzz(func(t *testing.T, nRaw, roundsRaw, pRaw uint8, seed int64, multScale uint32) {
		base, inputs, rounds := quickParams(nRaw, roundsRaw, pRaw, seed)
		scale := 1 + int(multScale%(MaxPackedMult+2))
		s := dynnet.NewFunc(base.N(), func(r int) *dynnet.Multigraph {
			g := base.Graph(r)
			if scale == 1 {
				return g
			}
			scaled := dynnet.NewMultigraph(g.N())
			for _, l := range g.Links() {
				scaled.MustAddLink(l.U, l.V, l.Mult*scale)
			}
			return scaled
		})
		got, err := Build(s, inputs, rounds)
		if err != nil {
			t.Fatalf("batched Build: %v", err)
		}
		want, err := WitnessBuild(s, inputs, rounds)
		if err != nil {
			t.Fatalf("witness Build: %v", err)
		}
		if err := got.Tree.Validate(); err != nil {
			t.Fatalf("batched tree Validate: %v", err)
		}
		requireSameRun(t, got, want)
	})
}

func FuzzSolverArithmetic(f *testing.F) {
	f.Add(byte(0), uint16(0), int64(1), false)
	f.Add(byte(4), uint16(26000), int64(42), false)
	f.Add(byte(8), uint16(65535), int64(-3), true)
	f.Add(byte(2), uint16(300), int64(7), true)
	f.Fuzz(func(t *testing.T, nRaw byte, pRaw uint16, seed int64, leaderless bool) {
		n := 2 + int(nRaw)%9 // [2, 10]: the per-input level sweep is O(n^4)
		p := float64(pRaw) / 65535
		s := dynnet.NewRandomConnected(n, p, seed)
		inputs := make([]Input, n)
		if leaderless {
			for i := range inputs {
				inputs[i].Value = int64(i % 3)
			}
		} else {
			inputs[0].Leader = true
		}
		run, err := Build(s, inputs, 3*n)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewSolver()
		for l := 0; l <= run.Rounds; l++ {
			if leaderless {
				exact, err1 := Frequencies(run.Tree, l)
				mod, err2 := FrequenciesModular(run.Tree, l)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("level %d: error divergence: big %v, modular %v", l, err1, err2)
				}
				if err1 == nil && !SameFreq(exact, mod) {
					t.Fatalf("level %d: modular %+v != big %+v", l, mod, exact)
				}
				im, err3 := inc.FrequenciesAt(run.Tree, l)
				if (err1 == nil) != (err3 == nil) {
					t.Fatalf("level %d: incremental error divergence: big %v, incremental %v", l, err1, err3)
				}
				if err3 == nil && !SameFreq(exact, im) {
					t.Fatalf("level %d: incremental %+v != big %+v", l, im, exact)
				}
				continue
			}
			exact, err1 := Count(run.Tree, l)
			mod, err2 := CountModular(run.Tree, l)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("level %d: error divergence: big %v, modular %v", l, err1, err2)
			}
			if err1 == nil && !SameCount(exact, mod) {
				t.Fatalf("level %d: modular %+v != big %+v", l, mod, exact)
			}
			im, err3 := inc.CountAt(run.Tree, l)
			if (err1 == nil) != (err3 == nil) {
				t.Fatalf("level %d: incremental error divergence: big %v, incremental %v", l, err1, err3)
			}
			if err3 == nil && !SameCount(exact, im) {
				t.Fatalf("level %d: incremental %+v != big %+v", l, im, exact)
			}
		}
	})
}
