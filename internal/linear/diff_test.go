package linear_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// This file is the cross-protocol differential suite: the congested
// backend (internal/core) and the linear backend run the same schedules —
// the full PR 5 fault matrix — and must produce identical answers.
// Congested runs carry the full invariant checker; linear answers are
// verified against ground truth with check.VerifyAnswer. Both protocols
// bill their messages' exact wire sizes, so every subtest also logs the
// measured rounds-vs-bits tradeoff the E17 experiment tabulates.

// matrixSchedules is the number of random base schedules every fault-matrix
// cell runs on; the subtests name one by its index (sched=i).
const matrixSchedules = 3

// inModelPlans is the PR 5 in-model fault matrix, verbatim from
// internal/faults/integration_test.go.
var inModelPlans = []string{
	"spike:5:30",
	"cut:3:20",
	"storm:1:0:3",
	"burst:1:0",
	"spike:4:16,storm:1:0:2",
}

// faultedSchedule rebuilds the matrix schedule for one (plan, T, sched)
// cell: the random inner schedule with seed T·101+3+sched, union-connected
// for T > 1, with the fault plan layered on top. Each call constructs a
// fresh schedule so the two protocol runs cannot share mutable state.
func faultedSchedule(t *testing.T, n int, spec string, T, sched int) dynnet.Schedule {
	t.Helper()
	plan, err := faults.Parse(spec, T, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := dynnet.Schedule(dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3+int64(sched)))
	if T > 1 {
		uc, err := dynnet.NewUnionConnected(base, T)
		if err != nil {
			t.Fatal(err)
		}
		base = uc
	}
	return plan.Wrap(base)
}

// runCongested executes the congested protocol with the invariant checker
// attached and fully verified.
func runCongested(t *testing.T, s dynnet.Schedule, inputs []historytree.Input,
	mode core.Mode, T int) *core.RunResult {
	t.Helper()
	n := len(inputs)
	cfg := core.Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
	if mode == core.ModeLeaderless {
		cfg.DiamBound = n * T
	}
	checker := check.New(inputs)
	checker.Attach(&cfg)
	res, err := core.Run(s, inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatalf("congested run: %v", err)
	}
	if err := checker.Verify(res); err != nil {
		t.Fatalf("congested invariant checker: %v", err)
	}
	return res
}

// runLinear executes the linear protocol and verifies its answer against
// ground truth.
func runLinear(t *testing.T, s dynnet.Schedule, inputs []historytree.Input,
	mode core.Mode, T int) *core.RunResult {
	t.Helper()
	n := len(inputs)
	cfg := linear.Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
	if mode == core.ModeLeaderless {
		cfg.DiamBound = n * T
	}
	res, err := linear.Run(s, inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatalf("linear run: %v", err)
	}
	if err := check.VerifyAnswer(inputs, res); err != nil {
		t.Fatalf("linear ground truth: %v", err)
	}
	return res
}

// assertSameAnswer is the equivalence oracle: identical count and
// multiset in leader mode, identical frequency vector in leaderless mode.
func assertSameAnswer(t *testing.T, congested, lin *core.RunResult) {
	t.Helper()
	if congested.N != lin.N {
		t.Fatalf("protocols disagree on the count: congested %d, linear %d", congested.N, lin.N)
	}
	if congested.Multiset != nil && lin.Multiset != nil {
		if len(congested.Multiset) != len(lin.Multiset) {
			t.Fatalf("multiset class counts differ: congested %v, linear %v", congested.Multiset, lin.Multiset)
		}
		for in, cnt := range congested.Multiset {
			if lin.Multiset[in] != cnt {
				t.Fatalf("multiset[%v]: congested %d, linear %d", in, cnt, lin.Multiset[in])
			}
		}
	}
	cf, lf := congested.Frequencies, lin.Frequencies
	if (cf == nil) != (lf == nil) {
		t.Fatalf("one protocol returned frequencies, the other did not: %v vs %v", cf, lf)
	}
	if cf != nil {
		if cf.MinSize != lf.MinSize || len(cf.Shares) != len(lf.Shares) {
			t.Fatalf("frequency vectors differ: congested %+v, linear %+v", cf, lf)
		}
		for in, s := range cf.Shares {
			if lf.Shares[in] != s {
				t.Fatalf("share[%v]: congested %d, linear %d", in, s, lf.Shares[in])
			}
		}
	}
}

// assertBitAccounting asserts both runs carried bit accounting, and logs
// the measured rounds-vs-bits tradeoff.
func assertBitAccounting(t *testing.T, congested, lin *core.RunResult) {
	t.Helper()
	for name, res := range map[string]*core.RunResult{"congested": congested, "linear": lin} {
		if res.Stats.TotalBits <= 0 || res.Stats.MaxMessageBits <= 0 || res.Stats.TotalMessages <= 0 {
			t.Fatalf("%s run lost its bit accounting: %+v", name, res.Stats)
		}
	}
	t.Logf("tradeoff: congested rounds=%d totalBits=%d maxBits=%d | linear rounds=%d totalBits=%d maxBits=%d",
		congested.Stats.Rounds, congested.Stats.TotalBits, congested.Stats.MaxMessageBits,
		lin.Stats.Rounds, lin.Stats.TotalBits, lin.Stats.MaxMessageBits)
}

// TestProtocolEquivalenceFaultMatrix is the headline differential suite:
// on every schedule of the PR 5 in-model fault matrix — leader and
// leaderless, T ∈ {1, 2, 4, 8}, every fault family, matrixSchedules random
// base schedules — both protocols must return the identical answer, each
// independently verified against ground truth.
func TestProtocolEquivalenceFaultMatrix(t *testing.T) {
	n := 5
	for sched := range matrixSchedules {
		for _, T := range []int{1, 2, 4, 8} {
			for _, spec := range inModelPlans {
				t.Run(fmt.Sprintf("leader/sched=%d/T=%d/%s", sched, T, spec), func(t *testing.T) {
					inputs := leaderIn(n)
					congested := runCongested(t, faultedSchedule(t, n, spec, T, sched), inputs, core.ModeLeader, T)
					lin := runLinear(t, faultedSchedule(t, n, spec, T, sched), inputs, core.ModeLeader, T)
					assertSameAnswer(t, congested, lin)
					assertBitAccounting(t, congested, lin)
				})
				t.Run(fmt.Sprintf("leaderless/sched=%d/T=%d/%s", sched, T, spec), func(t *testing.T) {
					inputs := valueIn(n)
					congested := runCongested(t, faultedSchedule(t, n, spec, T, sched), inputs, core.ModeLeaderless, T)
					lin := runLinear(t, faultedSchedule(t, n, spec, T, sched), inputs, core.ModeLeaderless, T)
					assertSameAnswer(t, congested, lin)
					assertBitAccounting(t, congested, lin)
				})
			}
		}
	}
}

// TestProtocolEquivalenceGeneralized extends the differential suite to
// Generalized Counting: a non-trivial input multiset under a combined
// in-model plan, mirroring TestGeneralizedCountingUnderFaults.
func TestProtocolEquivalenceGeneralized(t *testing.T) {
	inputs := []historytree.Input{
		{Leader: true}, {Value: 1}, {Value: 1}, {Value: 2}, {Value: 2}, {Value: 2},
	}
	n := len(inputs)
	mkSched := func() dynnet.Schedule {
		plan, err := faults.Parse("spike:6:20,storm:1:0:2", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Wrap(dynnet.NewRandomConnected(n, 0.5, 8))
	}

	cfg := core.Config{Mode: core.ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 8}
	checker := check.New(inputs)
	checker.Attach(&cfg)
	congested, err := core.Run(mkSched(), inputs, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(congested); err != nil {
		t.Fatal(err)
	}

	lin := runLinear(t, mkSched(), inputs, core.ModeLeader, 1)
	assertSameAnswer(t, congested, lin)
	if lin.Multiset[historytree.Input{Value: 2}] != 3 {
		t.Fatalf("linear multiset: %v", lin.Multiset)
	}
}

// TestProtocolsReportOneStatSet pins that both protocols fill one stats
// record through core's run harness. On one schedule, leader and
// leaderless, every RunStats field the two protocols define must be set
// by both, and every field only the congested protocol defines (quiet
// relay rounds, resets, structural sharing, the modular solver's prime
// battery) must read 0 for the linear one. A RunStats field missing from
// the table fails the test, so a new counter has to say which protocols
// define it.
func TestProtocolsReportOneStatSet(t *testing.T) {
	const (
		both = iota + 1
		congestedOnly
	)
	defined := map[string]int{
		"Rounds": both, "MaxMessageBits": both, "TotalMessages": both, "TotalBits": both,
		"Levels": both, "WallClock": both, "SolverTime": both, "SolverCalls": both,
		"ResidentNodes": both, "PeakResidentNodes": both,
		// The linear protocol has no diameter estimate; leaderless, both
		// report the known bound they ran with.
		"FinalDiamEstimate": congestedOnly,
		"QuietRounds":       congestedOnly, "Resets": congestedOnly,
		"SolverPrimes": congestedOnly, "SolverCRTRecons": congestedOnly,
		"SolverEvictions": congestedOnly, "SolverWitnessFalls": congestedOnly,
		"SharedApplies": congestedOnly, "SharedHits": congestedOnly, "SharedForks": congestedOnly,
	}
	n := 8
	for _, mode := range []core.Mode{core.ModeLeader, core.ModeLeaderless} {
		inputs := leaderIn(n)
		name := "leader"
		if mode == core.ModeLeaderless {
			inputs, name = valueIn(n), "leaderless"
		}
		t.Run(name, func(t *testing.T) {
			mkSched := func() dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.3, 1) }
			congested := runCongested(t, mkSched(), inputs, mode, 1)
			lin := runLinear(t, mkSched(), inputs, mode, 1)
			assertSameAnswer(t, congested, lin)
			cv, lv := reflect.ValueOf(congested.Stats), reflect.ValueOf(lin.Stats)
			for i := range cv.NumField() {
				field := cv.Type().Field(i).Name
				def := defined[field]
				if field == "FinalDiamEstimate" && mode == core.ModeLeaderless {
					def = both
				}
				switch def {
				case both:
					if cv.Field(i).IsZero() || lv.Field(i).IsZero() {
						t.Errorf("%s: congested %v, linear %v; both protocols define it", field,
							cv.Field(i), lv.Field(i))
					}
				case congestedOnly:
					if !lv.Field(i).IsZero() {
						t.Errorf("%s: linear %v; only the congested protocol defines it", field, lv.Field(i))
					}
				default:
					t.Errorf("RunStats.%s is in neither list of this test", field)
				}
			}
		})
	}
}

// failsDetectably runs one protocol over an out-of-model schedule and
// reports how the failure surfaced: a structured error, or an answer the
// ground-truth oracle rejects. A clean run with a verified answer returns
// false — the silent-corruption case the suite exists to rule out.
func failsDetectably(t *testing.T, protocol string, s dynnet.Schedule,
	inputs []historytree.Input) (bool, string) {
	t.Helper()
	n := len(inputs)
	opts := core.RunOptions{
		Deadline:  100 * time.Millisecond,
		MaxRounds: 1 << 30, // the watchdog or the oracle must end it, not the round cap
	}
	var res *core.RunResult
	var err error
	if protocol == "linear" {
		res, err = linear.Run(s, inputs, linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, opts)
	} else {
		res, err = core.Run(s, inputs, core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, opts)
	}
	if err != nil {
		return true, fmt.Sprintf("structured error: %v", err)
	}
	if err := check.VerifyAnswer(inputs, res); err != nil {
		return true, fmt.Sprintf("ground-truth rejection: %v", err)
	}
	return false, ""
}

// TestProtocolsFailDetectablyOutOfModel mirrors the PR 5 out-of-model
// cases on both protocols, each over two random base schedules (sched=i
// wraps the one with seed 4+i): neither may return a silently wrong answer.
// Total message loss makes the anonymous leader count only itself (caught
// by the oracle) under both protocols; a forever-crashed leader wedges
// the run until the watchdog or the level guard ends it.
func TestProtocolsFailDetectablyOutOfModel(t *testing.T) {
	n := 5
	cases := []string{"drop:1:0:1", "crash:0:3:0"}
	for sched := range 2 {
		for _, spec := range cases {
			for _, protocol := range []string{"congested", "linear"} {
				t.Run(fmt.Sprintf("%s/%s/sched=%d", protocol, spec, sched), func(t *testing.T) {
					plan, err := faults.Parse(spec, 1, 9)
					if err != nil {
						t.Fatal(err)
					}
					if plan.InModel() {
						t.Fatalf("plan %q must be out-of-model", spec)
					}
					s := plan.Wrap(dynnet.NewRandomConnected(n, 0.5, 4+int64(sched)))
					detected, how := failsDetectably(t, protocol, s, leaderIn(n))
					if !detected {
						t.Fatalf("%s returned a verified answer under out-of-model plan %q", protocol, spec)
					}
					t.Logf("%s failed detectably: %s", protocol, how)
				})
			}
		}
	}
}
