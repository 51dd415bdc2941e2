// Benchmarks: one per reproduction experiment (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark runs the system(s) behind the
// corresponding experiment and reports the domain metrics (rounds, message
// bits, red edges, resets) via b.ReportMetric, in addition to the usual
// time/allocation figures.
//
// Run with: go test -bench=. -benchmem
package anondyn_test

import (
	"fmt"
	"testing"

	"anondyn"
	"anondyn/internal/bench"
)

func BenchmarkE1HistoryTreeFig1(b *testing.B) {
	sched, inputs := bench.Fig1Schedule()
	for i := 0; i < b.N; i++ {
		run, err := anondyn.BuildHistoryTree(sched, inputs, 3)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(run.Tree.Level(2)); got != 8 {
			b.Fatalf("L2 has %d classes, want 8", got)
		}
	}
}

// countOnce runs the congested counting algorithm once and fails the
// benchmark on any error or miscount.
func countOnce(b *testing.B, s anondyn.Schedule, n int, cfg anondyn.Config) *anondyn.RunResult {
	b.Helper()
	inputs := anondyn.LeaderInputs(n)
	res, err := anondyn.Run(s, inputs, cfg, anondyn.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if res.N != n {
		b.Fatalf("counted %d, want %d", res.N, n)
	}
	return res
}

// BenchmarkE2RoundsVsN is one full counting run per size. n = 24 … 96
// track how the history-tree layer scales past E2's sweep; n=96 is the
// run `make profile` captures.
func BenchmarkE2RoundsVsN(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16, 24, 48, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := anondyn.RandomConnected(n, 0.3, 1)
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6}
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = countOnce(b, s, n, cfg).Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(n*n*n), "rounds/n³")
		})
	}
}

func BenchmarkE3MessageBits(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := anondyn.RandomConnected(n, 0.3, 7)
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6}
			var bits int
			for i := 0; i < b.N; i++ {
				bits = countOnce(b, s, n, cfg).Stats.MaxMessageBits
			}
			b.ReportMetric(float64(bits), "max-bits")
		})
	}
}

func BenchmarkE4RedEdgeAmortization(b *testing.B) {
	for _, n := range []int{6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := anondyn.RandomConnected(n, 0.5, 3)
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6}
			var red int
			for i := 0; i < b.N; i++ {
				red = countOnce(b, s, n, cfg).VHT.RedEdgeCount(-1)
			}
			b.ReportMetric(float64(red), "vht-red-edges")
			b.ReportMetric(float64(red)/float64(n*n), "red/n²")
		})
	}
}

func BenchmarkE5DiamEstimate(b *testing.B) {
	for _, n := range []int{5, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6}
			var resets, diam int
			for i := 0; i < b.N; i++ {
				res := countOnce(b, anondyn.ShiftingPath(n), n, cfg)
				resets, diam = res.Stats.Resets, res.Stats.FinalDiamEstimate
				if diam > 4*n {
					b.Fatalf("final diameter estimate %d exceeds 4n=%d", diam, 4*n)
				}
			}
			b.ReportMetric(float64(resets), "resets")
			b.ReportMetric(float64(diam), "final-diam")
		})
	}
}

// BenchmarkE17ProtocolTradeoff runs both protocols at E17's small
// n-points. linear/n=32 has the shape of the repo benchmark's
// linear-random workload (density 0.3) and is the linear path's profiling
// home: make profile BENCH='BenchmarkE17ProtocolTradeoff/linear/n=32'.
func BenchmarkE17ProtocolTradeoff(b *testing.B) {
	lin := func(n int, s anondyn.Schedule) {
		b.Run(fmt.Sprintf("linear/n=%d", n), func(b *testing.B) {
			var res *anondyn.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = anondyn.RunNonCongested(s, anondyn.LeaderInputs(n), 0)
				if err != nil {
					b.Fatal(err)
				}
				if res.N != n {
					b.Fatalf("counted %d, want %d", res.N, n)
				}
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.MaxMessageBits), "max-bits")
		})
	}
	for _, n := range []int{6, 10} {
		s := anondyn.RandomConnected(n, 0.3, 17)
		b.Run(fmt.Sprintf("congested/n=%d", n), func(b *testing.B) {
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 6}
			var res *anondyn.RunResult
			for i := 0; i < b.N; i++ {
				res = countOnce(b, s, n, cfg)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.MaxMessageBits), "max-bits")
		})
		lin(n, s)
	}
	lin(32, anondyn.RandomConnected(32, 0.3, 1))
}

func BenchmarkE7TokenForwarding(b *testing.B) {
	for _, n := range []int{6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := anondyn.RandomConnected(n, 0.3, 23)
			var res *anondyn.TokenForwardResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = anondyn.RunTokenForward(s, n, 1234)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Estimate), "estimate")
		})
	}
}

func BenchmarkE8Leaderless(b *testing.B) {
	for _, n := range []int{6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := make([]anondyn.Input, n)
			for i := range inputs {
				inputs[i].Value = int64(i % 2)
			}
			s := anondyn.RandomConnected(n, 0.4, 29)
			cfg := anondyn.Config{Mode: anondyn.ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 6}
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := anondyn.Run(s, inputs, cfg, anondyn.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Frequencies.Known {
					b.Fatal("frequencies unknown")
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(n*n*n), "rounds/Dn²")
		})
	}
}

func BenchmarkE9UnionConnected(b *testing.B) {
	const n = 6
	for _, T := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			inner := anondyn.RandomConnected(n, 0.5, 31)
			s := inner
			if T > 1 {
				var err error
				s, err = anondyn.UnionConnected(inner, T)
				if err != nil {
					b.Fatal(err)
				}
			}
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, BlockT: T, MaxLevels: 3*n + 6}
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = countOnce(b, s, n, cfg).Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(T), "rounds/T")
		})
	}
}

func BenchmarkE10VirtualNetworkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E10Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11GeneralizedCounting(b *testing.B) {
	const n = 8
	inputs := make([]anondyn.Input, n)
	inputs[0].Leader = true
	for i := range inputs {
		inputs[i].Value = int64(i % 3)
	}
	s := anondyn.RandomConnected(n, 0.4, 37)
	cfg := anondyn.Config{
		Mode:             anondyn.ModeLeader,
		BuildInputLevel:  true,
		SimultaneousHalt: true,
		MaxLevels:        3*n + 6,
	}
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := anondyn.Run(s, inputs, cfg, anondyn.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.N != n {
			b.Fatalf("counted %d, want %d", res.N, n)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkE12SpanningTreeAblation(b *testing.B) {
	const n = 9
	s := anondyn.RandomConnected(n, 0.9, 12)
	for _, keepAll := range []bool{false, true} {
		name := "pruned"
		if keepAll {
			name = "keep-all-links"
		}
		b.Run(name, func(b *testing.B) {
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, KeepAllLinks: keepAll, MaxLevels: 3*n + 6}
			var res *anondyn.RunResult
			for i := 0; i < b.N; i++ {
				res = countOnce(b, s, n, cfg)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.VHT.RedEdgeCount(-1)), "red-edges")
		})
	}
}

func BenchmarkE13BatchingTradeoff(b *testing.B) {
	const n = 10
	s := anondyn.RandomConnected(n, 0.9, 4)
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cfg := anondyn.Config{
				Mode: anondyn.ModeLeader, BatchSize: batch, KeepAllLinks: true, MaxLevels: 3*n + 6,
			}
			var res *anondyn.RunResult
			for i := 0; i < b.N; i++ {
				res = countOnce(b, s, n, cfg)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.MaxMessageBits), "max-bits")
		})
	}
}

// BenchmarkE14AdaptiveAdversary counts against the Isolator with the leader
// at 0; n=32 is the congested-isolator shape of the repo benchmark and the
// isolator's profiling home (see README "Profiling").
func BenchmarkE14AdaptiveAdversary(b *testing.B) {
	for _, n := range []int{4, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := anondyn.Config{Mode: anondyn.ModeLeader, MaxLevels: 3*n + 8}
			var res *anondyn.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = anondyn.RunAdaptive(anondyn.Isolator(n, 0), anondyn.LeaderInputs(n), cfg, anondyn.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if res.N != n {
					b.Fatalf("counted %d, want %d", res.N, n)
				}
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.FinalDiamEstimate), "final-diam")
		})
	}
}
