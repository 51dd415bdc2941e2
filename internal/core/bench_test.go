package core

import (
	"math/rand"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	testoracle "anondyn/internal/oracle"
)

// BenchmarkE2SolverReplay replays the leader's per-level counting over the
// VHT an n=12 counting run produces, from scratch and through the
// incremental Solver: the solver-heavy slice of a run, without the engine's
// round overhead, so the incremental-vs-from-scratch ratio shows. The
// schedule keeps the classic math/rand stream the earliest measurements
// used, so the VHT, and with it what this measures, stays fixed.
func BenchmarkE2SolverReplay(b *testing.B) {
	const n = 12
	s := dynnet.NewFunc(n, func(t int) *dynnet.Multigraph {
		return testoracle.RandomConnected(n, 0.3, rand.New(rand.NewSource(1*1000003+int64(t))))
	})
	res, err := Run(s, leaderInputs(n), Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	depth := res.VHT.Depth()
	for _, tc := range []struct {
		name        string
		incremental bool
	}{{"FromScratch/n=12", false}, {"Incremental/n=12", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solver := historytree.NewSolver()
				for l := 0; l <= depth; l++ {
					count := historytree.Count
					if tc.incremental {
						count = solver.CountAt
					}
					cres, err := count(res.VHT, l)
					if err != nil {
						b.Fatal(err)
					}
					if cres.Known && cres.N != n {
						b.Fatalf("wrong count at level %d: %+v", l, cres)
					}
				}
			}
		})
	}
}
