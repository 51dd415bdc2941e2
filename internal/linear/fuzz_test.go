package linear_test

import (
	"fmt"
	"testing"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// FuzzProtocolEquivalence is the coverage-guided arm of the differential
// suite: the fuzzer picks a network size, density, seed, disconnectivity
// T, mode and a fault-plan spec, and both protocols run the resulting
// schedule. The contract:
//
//   - in-model (or fault-free) runs must succeed under BOTH protocols,
//     each answer must pass the ground-truth oracle, and the answers must
//     agree;
//   - out-of-model runs must fail detectably under both: a structured
//     error, or an answer the oracle rejects — never a panic, never an
//     unbounded run (rounds are capped, no wall-clock watchdog, so the
//     target stays deterministic);
//   - in either case, every linear message's bit size must equal that of
//     its canonical View (linear.RunCheckingBits).
func FuzzProtocolEquivalence(f *testing.F) {
	f.Add(5, uint8(50), int64(7), 1, "", false)
	f.Add(5, uint8(50), int64(7), 2, "spike:5:30", false)
	f.Add(6, uint8(40), int64(11), 1, "cut:3:20,storm:1:0:2", true)
	f.Add(8, uint8(60), int64(3), 4, "burst:1:0", false)
	f.Add(5, uint8(50), int64(9), 1, "drop:1:0:1", false)
	f.Add(5, uint8(50), int64(9), 1, "crash:0:3:0", true)

	f.Fuzz(func(t *testing.T, n int, pSel uint8, seed int64, T int, spec string, leaderless bool) {
		n = 1 + absInt(n)%8
		T = []int{1, 2, 4}[absInt(T)%3]
		p := 0.2 + float64(pSel%100)/160 // density in [0.2, 0.82)

		plan, err := faults.Parse(spec, T, seed)
		if err != nil {
			return // grammar rejection is the fault fuzzer's domain
		}
		if err := plan.ValidateFor(n); err != nil {
			return
		}
		inModel := plan.InModel()

		mkSched := func() dynnet.Schedule {
			base := dynnet.Schedule(dynnet.NewRandomConnected(n, p, seed))
			if T > 1 {
				uc, err := dynnet.NewUnionConnected(base, T)
				if err != nil {
					t.Fatal(err)
				}
				base = uc
			}
			return plan.Wrap(base)
		}

		var inputs []historytree.Input
		mode := core.ModeLeader
		if leaderless {
			if n == 1 {
				return // a 1-process leaderless run has nothing to disagree about
			}
			inputs = valueIn(n)
			mode = core.ModeLeaderless
		} else {
			inputs = leaderIn(n)
		}

		// Bounded, deterministic run of one protocol. In-model runs get
		// the backend's own derived round budget (they are guaranteed to
		// terminate within it); out-of-model runs get a tight cap so
		// wedges end quickly without a wall-clock watchdog.
		runOne := func(protocol string) (*core.RunResult, error) {
			var opts core.RunOptions
			if !inModel {
				opts.MaxRounds = 20_000 * T
			}
			if protocol == "linear" {
				cfg := linear.Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
				if leaderless {
					cfg.DiamBound = n * T
				}
				return linear.RunCheckingAll(t, mkSched(), inputs, cfg, opts)
			}
			cfg := core.Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
			if leaderless {
				cfg.DiamBound = n * T
			}
			return core.Run(mkSched(), inputs, cfg, opts)
		}

		type outcome struct {
			res *core.RunResult
			err error
		}
		results := map[string]outcome{}
		for _, protocol := range []string{"congested", "linear"} {
			res, err := runOne(protocol)
			if err == nil {
				if verr := check.VerifyAnswer(inputs, res); verr != nil {
					if inModel {
						t.Fatalf("%s (in-model %q): oracle rejected the answer: %v", protocol, spec, verr)
					}
					err = fmt.Errorf("oracle rejection: %w", verr)
					res = nil
				}
			} else if inModel {
				t.Fatalf("%s failed under in-model plan %q: %v", protocol, spec, err)
			}
			results[protocol] = outcome{res, err}
		}

		// Out-of-model: anything but a panic or an unbounded run is fine —
		// the oracle rejection above already converted silently wrong
		// answers into errors, and a genuinely correct answer despite the
		// faults (e.g. a mild probabilistic drop) passed the oracle.
		if !inModel {
			return
		}
		// In-model: both succeeded and passed the oracle; they must also
		// agree with each other.
		c, l := results["congested"], results["linear"]
		if c.res.N != l.res.N {
			t.Fatalf("plan %q: congested counted %d, linear %d", spec, c.res.N, l.res.N)
		}
		if leaderless && !sameShares(c.res.Frequencies, l.res.Frequencies) {
			t.Fatalf("plan %q: frequency vectors differ: %+v vs %+v",
				spec, c.res.Frequencies, l.res.Frequencies)
		}
	})
}

// sameShares compares two leaderless frequency results.
func sameShares(a, b *historytree.FrequencyResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.MinSize != b.MinSize || len(a.Shares) != len(b.Shares) {
		return false
	}
	for in, s := range a.Shares {
		if b.Shares[in] != s {
			return false
		}
	}
	return true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
