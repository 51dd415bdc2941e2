// Package linear implements the linear-time full-information counting
// algorithm of Di Luna–Viglietta ("Computing in Anonymous Dynamic
// Networks Is Linear", arXiv 2204.02128 / FOCS 2022) as a sibling backend
// of internal/core: the same history-tree substrate, the same engine,
// schedules and fault plans, but a protocol that broadcasts each
// process's entire view every round instead of O(log n)-bit messages.
// Views are hash-consed through a run-shared interner (structurally
// identical classes get one dense ID), so a message is a set of class IDs
// plus the sender's current class; its honest wire cost is still the
// canonical serialization of the whole view (internal/wire.View), which
// the engine accounts through wire.SizeOf. The result: Θ(T·n) rounds
// against the congested protocol's O(T·n³ log n), paid for with messages
// that grow to Θ(n³ log n) bits — the tradeoff experiment E17 measures.
//
// Both modes of the congested backend are supported, with decision rules
// derived from the solver black box rather than the FOCS 2022 "cut"
// analysis (see DESIGN.md decision 16):
//
//   - Leader mode: the leader scans completeness candidates c from the
//     shallowest up and accepts the first resolved answer n̂ once its view
//     is ≥ c + n̂ levels deep. One level spans T real rounds (the block
//     simulation), and each T-round block's union graph is connected, so
//     causal influence reaches every process within n̂−1 < n̂ blocks
//     exactly when n̂ = n — the assumed prefix is then genuinely complete.
//   - Leaderless mode: with a diameter bound D, any class created at
//     block ℓ is in every view by block ℓ + ⌈D/T⌉, so prefixes at
//     c ≤ depth − ⌈D/T⌉ are provably the true complete prefix and
//     identical across processes. Every process scans exactly those c and
//     outputs the first resolved frequency vector — all at the same
//     round, which Run verifies.
//
// Run returns the same *core.RunResult as the congested backend, so the
// service, CLI and bench layers handle both protocols uniformly.
package linear

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
)

// Config parameterizes the linear protocol. It is the small subset of
// core.Config the full-information algorithm needs: the congested
// protocol's acknowledgment, reset, batching and compaction machinery has
// no counterpart here.
type Config struct {
	// Mode selects the leader or leaderless decision rule.
	Mode core.Mode
	// DiamBound is the known upper bound D on the dynamic diameter in
	// real rounds, required in leaderless mode and ignored otherwise.
	DiamBound int
	// BlockT is the dynamic disconnectivity T: one history-tree level
	// spans T real rounds, accumulating deliveries. 0 and 1 both mean an
	// always-connected network.
	BlockT int
	// MaxLevels aborts a process with an error if its view grows beyond
	// this many levels without a decision (0 = unlimited). Termination is
	// guaranteed within O(n) levels in-model, so tests set this to catch
	// divergence under out-of-model faults.
	MaxLevels int
}

// blockT normalizes BlockT to ≥ 1.
func (c Config) blockT() int {
	if c.BlockT < 1 {
		return 1
	}
	return c.BlockT
}

// Validate checks the configuration against the inputs it will run with,
// mirroring core.Config.Validate.
func (c Config) Validate(inputs []historytree.Input) error {
	leaders := 0
	for _, in := range inputs {
		if in.Leader {
			leaders++
		}
	}
	switch c.Mode {
	case core.ModeLeader:
		if leaders != 1 {
			return fmt.Errorf("linear: leader mode requires exactly 1 leader, got %d", leaders)
		}
	case core.ModeLeaderless:
		if leaders != 0 {
			return fmt.Errorf("linear: leaderless mode forbids leader flags, got %d", leaders)
		}
		if c.DiamBound <= 0 {
			return fmt.Errorf("linear: leaderless mode requires a positive DiamBound")
		}
	default:
		return fmt.Errorf("linear: unknown mode %d", c.Mode)
	}
	if c.BlockT < 0 {
		return fmt.Errorf("linear: negative BlockT %d", c.BlockT)
	}
	return nil
}

// defaultMaxRounds derives a generous safety cap: the protocol decides
// within O(n) levels of T rounds each (plus the leaderless ⌈D/T⌉ lag),
// far under the congested backend's O(T·n³ log n) budget.
func defaultMaxRounds(n int, cfg Config) int {
	t := cfg.blockT()
	blocks := 4*n + 16
	if cfg.Mode == core.ModeLeaderless {
		blocks += (cfg.DiamBound + t - 1) / t
	}
	return t*blocks + 64
}

// Run executes the linear protocol over the schedule with the given
// inputs and returns the collected result in the same shape as core.Run,
// honoring the same engine-level options (context, deadline watchdog,
// bit limit, trace hook, scheduler selection). Like core.Run it verifies
// cross-process agreement on the leaderless answer before returning, so
// out-of-model schedules that break the diameter bound fail with a
// structured error instead of a silent disagreement.
func Run(s dynnet.Schedule, inputs []historytree.Input, cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	n := s.N()
	if err := cfg.Validate(inputs); err != nil {
		return nil, err
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("linear: %d inputs for %d processes", len(inputs), n)
	}

	itn := newInterner()
	procs := make([]engine.Coroutine, n)
	leaderPID := -1
	for i, in := range inputs {
		p := &process{itn: itn, cfg: cfg, input: in}
		procs[i] = engine.CoroutineFunc(p.run)
		if in.Leader {
			leaderPID = i
		}
	}

	ecfg := engine.Config{
		Schedule:  s,
		MaxRounds: opts.MaxRounds,
		Deadline:  opts.Deadline,
		SizeOf:    sizeOfMessage,
		BitLimit:  opts.BitLimit,
		Trace:     opts.Trace,
		Scheduler: opts.Scheduler,
	}
	if ecfg.MaxRounds <= 0 {
		ecfg.MaxRounds = defaultMaxRounds(n, cfg)
	}
	if cfg.Mode == core.ModeLeader {
		// The run is over once the leader has output; non-leaders never
		// decide in leader mode (the basic Section 3 contract of core).
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

	out := &core.RunResult{
		Outputs: make(map[int]*core.Outcome, len(res.Outputs)),
		Stats: core.RunStats{
			Rounds:         res.Rounds,
			MaxMessageBits: res.MaxMessageBits,
			TotalMessages:  res.TotalMessages,
			TotalBits:      res.TotalBits,
			WallClock:      time.Since(started),
		},
	}
	for pid, o := range res.Outputs {
		oc, ok := o.(*core.Outcome)
		if !ok {
			return nil, fmt.Errorf("linear: process %d produced unexpected output %T", pid, o)
		}
		out.Outputs[pid] = oc
	}

	switch cfg.Mode {
	case core.ModeLeader:
		leaderOut, ok := out.Outputs[leaderPID]
		if !ok {
			return nil, errors.New("linear: leader produced no output")
		}
		out.N = leaderOut.N
		out.Multiset = leaderOut.Multiset
		out.VHT = leaderOut.VHT
		out.Stats.Levels = leaderOut.Levels
		out.Stats.SolverTime = leaderOut.Solver.SolveTime
		out.Stats.SolverCalls = leaderOut.Solver.Calls
	case core.ModeLeaderless:
		if len(out.Outputs) != n {
			return nil, fmt.Errorf("linear: %d of %d leaderless processes produced output", len(out.Outputs), n)
		}
		var first *core.Outcome
		for _, oc := range out.Outputs {
			if first == nil {
				first = oc
				continue
			}
			if !sameFrequencies(first.Frequencies, oc.Frequencies) {
				return nil, errors.New("linear: leaderless processes disagree on frequencies")
			}
			if first.FinalRound != oc.FinalRound {
				return nil, fmt.Errorf("linear: leaderless termination rounds differ: %d vs %d",
					first.FinalRound, oc.FinalRound)
			}
		}
		out.Frequencies = first.Frequencies
		out.VHT = first.VHT
		out.Stats.Levels = first.Levels
		out.Stats.FinalDiamEstimate = first.FinalDiamEstimate
		out.Stats.SolverTime = first.Solver.SolveTime
		out.Stats.SolverCalls = first.Solver.Calls
	}
	return out, nil
}

// sameFrequencies mirrors core's leaderless agreement comparison.
func sameFrequencies(a, b *historytree.FrequencyResult) bool {
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
