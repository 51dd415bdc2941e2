package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"time"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
)

// RunStats aggregates engine- and protocol-level measurements of one run.
type RunStats struct {
	// Rounds is the number of real communication rounds executed.
	Rounds int
	// MaxMessageBits is the largest message observed on any link.
	MaxMessageBits int
	// TotalMessages and TotalBits accumulate over the whole run.
	TotalMessages int64
	TotalBits     int64
	// QuietRounds counts the rounds the engine accounted in quiet
	// stretches, making no graph and routing no link
	// (engine.Result.QuietRounds); 0 for a protocol that never relays.
	QuietRounds int
	// Resets is the number of leader-initiated reset phases.
	Resets int
	// FinalDiamEstimate is the deciding process's diameter estimate at
	// termination.
	FinalDiamEstimate int
	// Levels is the number of VHT levels completed when the answer was
	// produced.
	Levels int
	// WallClock is the real time the whole run took, engine included.
	WallClock time.Duration
	// SolverTime is the time the deciding process spent inside the
	// cardinality solver, and SolverCalls its number of solver
	// invocations; together with WallClock they show where a run's time
	// goes (see the perf appendix of EXPERIMENTS.md).
	SolverTime  time.Duration
	SolverCalls int
	// Multi-modular backend counters of the deciding process's solver:
	// the battery size reached, CRT ray reconstructions, unlucky-prime
	// evictions, and fallbacks to the big.Int exactness witness.
	SolverPrimes       int
	SolverCRTRecons    int
	SolverEvictions    int
	SolverWitnessFalls int
	// Cross-process structural-sharing counters (all zero when sharing is
	// off — single-process runs, FineGrainedReset):
	// SharedApplies is the number of structural operations applied to the
	// shared state (each the collapse of what was previously n identical
	// applications), SharedHits the number of O(1) log verifications that
	// replaced them, and SharedForks the number of processes that diverged
	// out-of-model and went copy-on-write private.
	SharedApplies int64
	SharedHits    int64
	SharedForks   int
	// History-tree residency counters of the deciding process (both zero
	// when its tree was discarded, e.g. Halt mid-level): ResidentNodes is
	// the nodes live at termination and PeakResidentNodes the lifetime
	// high-water mark.
	ResidentNodes     int
	PeakResidentNodes int
}

// RunResult is the outcome of a complete protocol run.
type RunResult struct {
	// N is the computed process count (leader mode).
	N int
	// Multiset is the Generalized Counting answer (leader mode; the
	// trivial {leader:1, other:n-1} partition in basic mode).
	Multiset map[historytree.Input]int
	// Frequencies is the leaderless answer (nil in leader mode).
	Frequencies *historytree.FrequencyResult
	// VHT is the deciding process's virtual history tree.
	VHT *historytree.Tree
	// Outputs holds every process's Outcome, keyed by engine index.
	Outputs map[int]*Outcome
	// Stats carries the run's measurements.
	Stats RunStats
}

// RunOptions bundles the engine-level knobs of Run (linear.Run honors the
// same set). Every run executes on the engine's one inline runner, so a
// run is single-threaded; independent runs parallelize at the job level.
type RunOptions struct {
	// Ctx, if non-nil, cancels the run externally: when it is done, the
	// engine stops the run at its next round boundary, unwinds every
	// process coroutine, and Run returns an error wrapping the context's
	// cause. Nil means no external cancellation (context.Background()).
	Ctx context.Context
	// MaxRounds caps the run; 0 derives a generous default from n and the
	// configuration (≈ 400·T·n³·log n real rounds plus slack).
	MaxRounds int
	// Deadline, when positive, arms the engine watchdog: a run still
	// active after this wall-clock duration is stopped with a structured
	// *engine.WatchdogError (errors.Is engine.ErrWatchdog) instead of
	// hanging. Zero means no watchdog. See engine.Config.Deadline.
	Deadline time.Duration
	// BitLimit, when positive, aborts the run if any message exceeds it
	// (congestion enforcement).
	BitLimit int
	// Trace, if non-nil, observes every round's sent messages (see
	// internal/trace for a ready-made logger).
	Trace func(round int, sent []engine.Message)
}

// Run executes the configured protocol over the schedule with the given
// inputs and returns the collected result. It validates the configuration,
// wires a Recorder if none was supplied, and verifies cross-process
// agreement on the answer before returning.
func Run(s dynnet.Schedule, inputs []historytree.Input, cfg Config, opts RunOptions) (*RunResult, error) {
	return run(engine.Config{Schedule: s}, s.N(), inputs, cfg, opts, oracle{})
}

// RunAdaptive is Run against a reactive (strongly adaptive) adversary that
// chooses each round's multigraph after seeing the messages in flight.
func RunAdaptive(a engine.AdaptiveSchedule, inputs []historytree.Input, cfg Config, opts RunOptions) (*RunResult, error) {
	return run(engine.Config{Adaptive: a}, a.N(), inputs, cfg, opts, oracle{})
}

// oracle selects the test-only reference paths of run; the exported entry
// points pass the zero value.
type oracle struct {
	// private turns cross-process structural sharing (DESIGN.md decision
	// 15) off: the per-process path the sharing equivalence tests compare
	// against. Sharing is skipped regardless for single-process runs and
	// under FineGrainedReset, whose journal replay re-applies messages the
	// shared state already holds.
	private bool
	// wrap, if non-nil, wraps every process's engine transport, beneath
	// the block simulation: the relay differential tests install a
	// stepwise Relay there.
	wrap func(transport) transport
}

// run executes the protocol.
func run(ecfg engine.Config, n int, inputs []historytree.Input, cfg Config, opts RunOptions, o oracle) (*RunResult, error) {
	if err := cfg.Validate(inputs); err != nil {
		return nil, err
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("core: %d inputs for %d processes", len(inputs), n)
	}
	if cfg.Recorder == nil {
		cfg.Recorder = NewRecorder()
	}

	procs := make([]engine.Coroutine, n)
	leaderPID := -1
	var grp *shareGroup
	if !o.private && n > 1 && !cfg.FineGrainedReset {
		grp = newShareGroup(cfg, n)
	}
	for i, in := range inputs {
		pr := NewProcess(cfg, in)
		if grp != nil {
			pr.group, pr.member = grp, i
		}
		procs[i] = pr
		if o.wrap != nil {
			procs[i] = engine.CoroutineFunc(func(tr *engine.Transport) (any, error) {
				return pr.runOn(o.wrap(tr))
			})
		}
		if in.Leader {
			leaderPID = i
		}
	}

	ecfg.MaxRounds = opts.MaxRounds
	if ecfg.MaxRounds <= 0 {
		ecfg.MaxRounds = defaultMaxRounds(n, cfg)
	}
	ecfg.Deadline = opts.Deadline
	ecfg.SizeOf = SizeOf
	ecfg.Priority = priority
	ecfg.BitLimit = opts.BitLimit
	ecfg.Trace = opts.Trace
	if cfg.Mode == ModeLeader && !cfg.SimultaneousHalt {
		// Basic contract: the run is over once the leader has output n.
		ecfg.StopWhen = func(outputs map[int]any) bool {
			_, ok := outputs[leaderPID]
			return ok
		}
	}

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	started := time.Now()
	res, err := engine.RunContext(ctx, ecfg, procs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(started)

	out := &RunResult{
		Outputs: make(map[int]*Outcome, len(res.Outputs)),
		Stats: RunStats{
			Rounds:         res.Rounds,
			MaxMessageBits: res.MaxMessageBits,
			TotalMessages:  res.TotalMessages,
			TotalBits:      res.TotalBits,
			QuietRounds:    res.QuietRounds,
			Resets:         cfg.Recorder.Resets(),
			WallClock:      wall,
		},
	}
	if grp != nil {
		out.Stats.SharedApplies, out.Stats.SharedHits, out.Stats.SharedForks = grp.statsSnapshot()
	}
	for pid, o := range res.Outputs {
		oc, ok := o.(*Outcome)
		if !ok {
			return nil, fmt.Errorf("core: process %d produced unexpected output %T", pid, o)
		}
		out.Outputs[pid] = oc
	}

	switch cfg.Mode {
	case ModeLeader:
		leaderOut, ok := out.Outputs[leaderPID]
		if !ok {
			return nil, errors.New("core: leader produced no output")
		}
		out.N = leaderOut.N
		out.Multiset = leaderOut.Multiset
		out.VHT = leaderOut.VHT
		out.Stats.Levels = leaderOut.Levels
		out.Stats.FinalDiamEstimate = leaderOut.FinalDiamEstimate
		out.Stats.absorbSolver(leaderOut.Solver)
		out.Stats.absorbTree(leaderOut.VHT)
		if cfg.SimultaneousHalt {
			if err := checkSimultaneous(out.Outputs, n, leaderOut.N); err != nil {
				return nil, err
			}
			// Under SimultaneousHalt the leader also halts via the Halt
			// broadcast and reports no tree; keep the stats meaningful.
			out.Stats.Levels = maxLevels(out.Outputs)
		}
	case ModeLeaderless:
		if len(out.Outputs) != n {
			return nil, fmt.Errorf("core: %d of %d leaderless processes produced output", len(out.Outputs), n)
		}
		var first *Outcome
		for _, oc := range out.Outputs {
			if first == nil {
				first = oc
				continue
			}
			if !sameFrequencies(first.Frequencies, oc.Frequencies) {
				return nil, errors.New("core: leaderless processes disagree on frequencies")
			}
			if first.FinalRound != oc.FinalRound {
				return nil, fmt.Errorf("core: leaderless termination rounds differ: %d vs %d",
					first.FinalRound, oc.FinalRound)
			}
		}
		out.Frequencies = first.Frequencies
		out.VHT = first.VHT
		out.Stats.Levels = first.Levels
		out.Stats.FinalDiamEstimate = first.FinalDiamEstimate
		out.Stats.absorbSolver(first.Solver)
		out.Stats.absorbTree(first.VHT)
	}
	return out, nil
}

// absorbSolver copies the deciding process's solver counters into the
// run's stats.
func (st *RunStats) absorbSolver(s historytree.SolverStats) {
	st.SolverTime = s.SolveTime
	st.SolverCalls = s.Calls
	st.SolverPrimes = s.PrimesUsed
	st.SolverCRTRecons = s.CRTReconstructions
	st.SolverEvictions = s.UnluckyEvictions
	st.SolverWitnessFalls = s.WitnessFallbacks
}

// absorbTree copies the deciding process's history-tree residency
// counters into the run's stats. The tree is nil when the process halted
// mid-level (SimultaneousHalt); the counters then stay zero.
func (st *RunStats) absorbTree(t *historytree.Tree) {
	if t == nil {
		return
	}
	st.ResidentNodes = t.NumNodes()
	st.PeakResidentNodes = t.PeakResidentNodes()
}

// defaultMaxRounds derives a generous safety cap: the paper's bound is
// O(T·n³ log n) rounds for the basic algorithm.
func defaultMaxRounds(n int, cfg Config) int {
	t := cfg.blockT()
	nn := n
	if nn < 2 {
		nn = 2
	}
	log := 1
	for v := nn; v > 1; v >>= 1 {
		log++
	}
	base := 400 * nn * nn * nn * log
	if cfg.Mode == ModeLeaderless {
		base = 40 * cfg.DiamBound * nn * nn
	}
	return t*base + 10000
}

// checkSimultaneous verifies the Section 5 termination contract: every
// process output the same n at the same round.
func checkSimultaneous(outputs map[int]*Outcome, n, wantN int) error {
	if len(outputs) != n {
		return fmt.Errorf("core: %d of %d processes terminated", len(outputs), n)
	}
	round := -1
	for pid, oc := range outputs {
		if oc.N != wantN {
			return fmt.Errorf("core: process %d output n=%d, leader said %d", pid, oc.N, wantN)
		}
		if round < 0 {
			round = oc.FinalRound
		} else if oc.FinalRound != round {
			return fmt.Errorf("core: process %d terminated at round %d, others at %d", pid, oc.FinalRound, round)
		}
	}
	return nil
}

func maxLevels(outputs map[int]*Outcome) int {
	max := 0
	for _, oc := range outputs {
		if oc.Levels > max {
			max = oc.Levels
		}
	}
	return max
}

func sameFrequencies(a, b *historytree.FrequencyResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.MinSize == b.MinSize && maps.Equal(a.Shares, b.Shares)
}
