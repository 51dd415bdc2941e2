package faults_test

import (
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/faults"
)

// BenchmarkE2CountFault is one E2 counting run (n=12, the root
// BenchmarkE2RoundsVsN schedule) under an in-model fault plan: the spike
// drives the error/reset machinery (more rounds, same answer), the storm
// multiplies delivered links (more work per round). Both also time the
// faults.Schedule wrapper itself.
func BenchmarkE2CountFault(b *testing.B) {
	const n = 12
	for _, tc := range []struct{ name, plan string }{
		{"spike/n=12", "spike:8:0"},
		{"storm/n=12", "storm:1:0:3"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			plan, err := faults.Parse(tc.plan, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := plan.Wrap(dynnet.NewRandomConnected(n, 0.3, 1))
			cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(s, leaderIn(n), cfg, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if res.N != n {
					b.Fatalf("counted %d, want %d", res.N, n)
				}
			}
		})
	}
}
