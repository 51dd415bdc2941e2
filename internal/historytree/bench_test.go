package historytree_test

import (
	"fmt"
	"testing"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

func BenchmarkOracleBuild(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := dynnet.NewRandomConnected(n, 0.3, 1)
			inputs := make([]Input, n)
			inputs[0].Leader = true
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(s, inputs, 3*n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolver(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := dynnet.NewRandomConnected(n, 0.3, 1)
			inputs := make([]Input, n)
			inputs[0].Leader = true
			run, err := Build(s, inputs, 3*n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Count(run.Tree, 3*n)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Known || res.N != n {
					b.Fatalf("solver failed: %+v", res)
				}
			}
		})
	}
}

// BenchmarkSolverFromScratch replays the protocol's real access pattern —
// the leader re-solves after every completed level — through a
// from-scratch solve: the big.Int Count (the exactness witness and
// fallback) and, under modular/, the default multi-modular CountModular.
func BenchmarkSolverFromScratch(b *testing.B) {
	bench := func(name string, n int, count func(*Tree, int) (CountResult, error)) {
		b.Run(name, func(b *testing.B) {
			s := dynnet.NewRandomConnected(n, 0.3, 1)
			inputs := make([]Input, n)
			inputs[0].Leader = true
			run, err := Build(s, inputs, 3*n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := 0; l <= 3*n; l++ {
					res, err := count(run.Tree, l)
					if err != nil {
						b.Fatal(err)
					}
					if res.Known && res.N != n {
						b.Fatalf("wrong count at level %d: %+v", l, res)
					}
				}
			}
		})
	}
	for _, n := range []int{8, 16, 32} {
		bench(fmt.Sprintf("n=%d", n), n, Count)
	}
	for _, n := range []int{16, 24} {
		bench(fmt.Sprintf("modular/n=%d", n), n, CountModular)
	}
}

// BenchmarkSolverIncremental is the same per-level access pattern through
// the persistent Solver; its ratio to BenchmarkSolverFromScratch at the
// same n is the incremental solver's saving.
func BenchmarkSolverIncremental(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := dynnet.NewRandomConnected(n, 0.3, 1)
			inputs := make([]Input, n)
			inputs[0].Leader = true
			run, err := Build(s, inputs, 3*n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solver := NewSolver()
				for l := 0; l <= 3*n; l++ {
					res, err := solver.CountAt(run.Tree, l)
					if err != nil {
						b.Fatal(err)
					}
					if res.Known && res.N != n {
						b.Fatalf("wrong count at level %d: %+v", l, res)
					}
				}
			}
		})
	}
}

func BenchmarkCanonicalForm(b *testing.B) {
	s := dynnet.NewRandomConnected(16, 0.3, 1)
	inputs := make([]Input, 16)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracle.CanonicalForm(run.Tree)
	}
}

func BenchmarkViewExtract(b *testing.B) {
	s := dynnet.NewRandomConnected(16, 0.3, 1)
	inputs := make([]Input, 16)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 32)
	if err != nil {
		b.Fatal(err)
	}
	target := run.NodeOf[32][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractView(run.Tree, target); err != nil {
			b.Fatal(err)
		}
	}
}
