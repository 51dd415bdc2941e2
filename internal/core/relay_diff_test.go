package core_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/oracle"
	"anondyn/internal/wire"
)

// The relay differential (DESIGN.md decision 17): a run whose processes
// relay through the engine must be bit-identical to the same run with
// every Relay replaced by the stepwise reference — one SendAndReceive per
// round, folded in inbox order with core.Higher — in its counts, outputs,
// Trace stream and final VHT.

// traceHashes returns a Trace hook recording one hash per round of the
// sent messages' values (box identity is not observable).
func traceHashes() (*[]uint64, func(int, []engine.Message)) {
	log := &[]uint64{}
	return log, func(round int, sent []engine.Message) {
		h := fnv.New64a()
		fmt.Fprint(h, round)
		for _, m := range sent {
			v, _ := wire.FromBox(m)
			fmt.Fprintf(h, "|%v", v)
		}
		*log = append(*log, h.Sum64())
	}
}

// normalized strips a run's wall-clock fields, which differ run to run,
// and its quiet rounds, which count the work the engine's Relay skipped:
// the stepwise reference relays by SendAndReceive, so it skips none.
func normalized(st core.RunStats) core.RunStats {
	st.WallClock, st.SolverTime, st.QuietRounds = 0, 0, 0
	return st
}

// outcomeKey is an Outcome without its tree pointer and solver time.
func outcomeKey(oc *core.Outcome) string {
	s := oc.Solver
	s.SolveTime = 0
	tree := ""
	if oc.VHT != nil {
		tree = oracle.CanonicalForm(oc.VHT)
	}
	return fmt.Sprintf("n=%d ms=%v fr=%+v levels=%d diam=%d round=%d solver=%+v tree=%q",
		oc.N, oc.Multiset, oc.Frequencies, oc.Levels, oc.FinalDiamEstimate, oc.FinalRound, s, tree)
}

type diffCase struct {
	name   string
	ecfg   func() engine.Config // fresh schedule or adversary per run
	inputs []historytree.Input
	cfg    core.Config
}

func leaderInputs(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	in[0].Leader = true
	return in
}

func valueInputs(n int, leader bool) []historytree.Input {
	in := make([]historytree.Input, n)
	for i := range in {
		in[i].Value = int64(i % 3)
	}
	in[0].Leader = leader
	return in
}

// diffCases covers leader and leaderless modes, T ∈ {1, 2, 4}, every
// in-model fault plan, the Halt and fine-grained reset paths, and both
// adaptive adversaries.
func diffCases(t *testing.T) []diffCase {
	const n = 6
	var cases []diffCase
	plans := []string{"", "spike:5:30", "cut:3:20", "storm:1:0:3", "burst:1:0", "spike:4:16,storm:1:0:2"}
	for _, T := range []int{1, 2, 4} {
		for _, spec := range plans {
			base := func() dynnet.Schedule {
				var s dynnet.Schedule = dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)
				if T > 1 {
					uc, err := dynnet.NewUnionConnected(s, T)
					if err != nil {
						t.Fatal(err)
					}
					s = uc
				}
				if spec == "" {
					return s
				}
				plan, err := faults.Parse(spec, T, 7)
				if err != nil {
					t.Fatal(err)
				}
				return plan.Wrap(s)
			}
			sched := func() engine.Config { return engine.Config{Schedule: base()} }
			name := fmt.Sprintf("T=%d/%s", T, spec)
			cases = append(cases,
				diffCase{"leader/" + name, sched, leaderInputs(n),
					core.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8}},
				diffCase{"leaderless/" + name, sched, valueInputs(n, false),
					core.Config{Mode: core.ModeLeaderless, DiamBound: n * T, BlockT: T, MaxLevels: 3*n + 8}},
			)
			if spec == "" || spec == "spike:5:30" {
				cases = append(cases,
					diffCase{"halt-inputs/" + name, sched, valueInputs(n, true),
						core.Config{Mode: core.ModeLeader, BuildInputLevel: true, SimultaneousHalt: true, BlockT: T, MaxLevels: 3*n + 8}},
					diffCase{"fine-reset/" + name, sched, leaderInputs(n),
						core.Config{Mode: core.ModeLeader, FineGrainedReset: true, BlockT: T, MaxLevels: 3*n + 8}},
				)
			}
		}
	}
	const m = 7
	isolator := func() engine.Config { return engine.Config{Adaptive: adversary.NewIsolator(m, 0)} }
	spiker := func() engine.Config { return engine.Config{Adaptive: oracle.NewDiamSpiker(m)} }
	return append(cases,
		diffCase{"isolator", isolator, leaderInputs(m), core.Config{Mode: core.ModeLeader, MaxLevels: 3*m + 8}},
		diffCase{"isolator/halt", isolator, leaderInputs(m),
			core.Config{Mode: core.ModeLeader, SimultaneousHalt: true, MaxLevels: 3*m + 8}},
		diffCase{"spiker", spiker, leaderInputs(m), core.Config{Mode: core.ModeLeader, MaxLevels: 3*m + 8}},
		diffCase{"spiker/fine-reset", spiker, leaderInputs(m),
			core.Config{Mode: core.ModeLeader, FineGrainedReset: true, MaxLevels: 3*m + 8}},
		diffCase{"spiker/halt", spiker, leaderInputs(m),
			core.Config{Mode: core.ModeLeader, SimultaneousHalt: true, MaxLevels: 3*m + 8}},
	)
}

// TestRelayCoreDifferential runs every case through the engine's Relay and
// through the stepwise reference and requires identical observables.
func TestRelayCoreDifferential(t *testing.T) {
	resets, halts, quiet := 0, 0, 0
	defer func() {
		// The cases must reach the relays that end early: error phases
		// waiting for a Reset, and Halt forwarding; and the quiet
		// stretches the engine jumps.
		if !t.Failed() && (resets == 0 || halts == 0 || quiet == 0) {
			t.Fatalf("%d runs reset, %d halted and %d jumped quiet stretches; the differential must cover all three",
				resets, halts, quiet)
		}
	}()
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res   *core.RunResult
				trace []uint64
			}
			do := func(stepwise bool) run {
				log, hook := traceHashes()
				opts := core.RunOptions{Trace: hook}
				ecfg := tc.ecfg()
				var res *core.RunResult
				var err error
				switch {
				case stepwise:
					res, err = core.RunStepwise(ecfg, tc.inputs, tc.cfg, opts)
				case ecfg.Adaptive != nil:
					res, err = core.RunAdaptive(ecfg.Adaptive, tc.inputs, tc.cfg, opts)
				default:
					res, err = core.Run(ecfg.Schedule, tc.inputs, tc.cfg, opts)
				}
				if err != nil {
					t.Fatalf("stepwise=%v: %v", stepwise, err)
				}
				return run{res, *log}
			}
			relay, step := do(false), do(true)
			if relay.res.Stats.Resets > 0 {
				resets++
			}
			if tc.cfg.SimultaneousHalt {
				halts++
			}
			if relay.res.Stats.QuietRounds > 0 {
				quiet++
			}
			if step.res.Stats.QuietRounds != 0 {
				t.Fatalf("the stepwise reference skipped %d quiet rounds", step.res.Stats.QuietRounds)
			}
			if g, w := normalized(relay.res.Stats), normalized(step.res.Stats); g != w {
				t.Fatalf("stats differ:\n relay    %+v\n stepwise %+v", g, w)
			}
			if relay.res.N != step.res.N || !reflect.DeepEqual(relay.res.Multiset, step.res.Multiset) ||
				!reflect.DeepEqual(relay.res.Frequencies, step.res.Frequencies) {
				t.Fatalf("answers differ: relay n=%d %v %+v, stepwise n=%d %v %+v",
					relay.res.N, relay.res.Multiset, relay.res.Frequencies,
					step.res.N, step.res.Multiset, step.res.Frequencies)
			}
			if len(relay.res.Outputs) != len(step.res.Outputs) {
				t.Fatalf("%d outputs with relay, %d stepwise", len(relay.res.Outputs), len(step.res.Outputs))
			}
			for pid, oc := range relay.res.Outputs {
				so, ok := step.res.Outputs[pid]
				if !ok {
					t.Fatalf("process %d has no stepwise output", pid)
				}
				if g, w := outcomeKey(oc), outcomeKey(so); g != w {
					t.Fatalf("process %d outputs differ:\n relay    %s\n stepwise %s", pid, g, w)
				}
			}
			if len(relay.trace) != len(step.trace) {
				t.Fatalf("trace has %d rounds with relay, %d stepwise", len(relay.trace), len(step.trace))
			}
			for r := range relay.trace {
				if relay.trace[r] != step.trace[r] {
					t.Fatalf("round %d sent different messages", r+1)
				}
			}
		})
	}
}
