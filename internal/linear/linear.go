// Package linear implements the linear-time full-information counting
// algorithm of Di Luna–Viglietta ("Computing in Anonymous Dynamic
// Networks Is Linear", arXiv 2204.02128 / FOCS 2022) as a sibling backend
// of internal/core: the same history-tree substrate, the same engine,
// schedules and fault plans, but a protocol that broadcasts each
// process's entire view every round instead of O(log n)-bit messages.
// Views are hash-consed through a run-shared interner (structurally
// identical classes get one dense ID), so a message is a bit set of class
// IDs plus the sender's current class, which a receiver merges a word at
// a time; its honest wire cost is still the canonical serialization of
// the whole view (internal/wire.View). Each process computes that size
// exactly from per-level counts it keeps current as classes arrive and
// from run-wide canonical ranks, without rendering the view (sizer.go);
// the tests check every message against wire.View. The result: Θ(T·n)
// rounds against the congested protocol's O(T·n³ log n), paid for with
// messages that grow to Θ(n³ log n) bits — the tradeoff experiment E17
// measures.
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
// The solver's answer at c reads only levels 0..c, and a view only grows,
// so each process memoizes its answer at every c and re-solves only the
// candidates at or above the lowest level that has gained a class since
// (process.scan); the tests re-derive every scan from scratch.
//
// Run goes through the congested backend's run harness (core.Execute) and
// returns the same *core.RunResult with the same stats, so the service,
// CLI and bench layers handle both protocols uniformly.
package linear

import (
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
)

// Config parameterizes the linear protocol. It is the small subset of
// core.Config the full-information algorithm needs: the congested
// protocol's acknowledgment, reset and batching machinery has no
// counterpart here.
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

// Validate checks the configuration against the inputs it will run with:
// core.Config.Validate over the fields the two protocols share.
func (c Config) Validate(inputs []historytree.Input) error {
	return core.Config{Mode: c.Mode, DiamBound: c.DiamBound, BlockT: c.BlockT, MaxLevels: c.MaxLevels}.Validate(inputs)
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
// inputs through core's run harness (core.Execute), so it honors the same
// engine-level options (context, deadline watchdog, round cap, bit limit,
// trace hook), returns the same *core.RunResult and fills the same stats.
// Like core.Run it verifies cross-process agreement on the leaderless
// answer before returning, so out-of-model schedules that break the
// diameter bound fail with a structured error instead of a silent
// disagreement.
func Run(s dynnet.Schedule, inputs []historytree.Input, cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	return run(s, inputs, cfg, opts, hooks{})
}

// hooks are the test oracles' view into a run: each non-nil hook sees its
// event in the process that raises it, and an error from a hook fails
// that process. Run sets none.
type hooks struct {
	// send sees every message, with the run's interner, before it is
	// sent.
	send func(*interner, *viewMsg) error
	// scan sees every candidate scan of decide as it ends: the process,
	// its view, the completeness bound, and the last candidate the scan
	// visited; the answers it took are p.memo[:last+1].
	scan func(p *process, v *view, bound, last int) error
}

// run is Run with test hooks.
func run(s dynnet.Schedule, inputs []historytree.Input, cfg Config, opts core.RunOptions,
	h hooks) (*core.RunResult, error) {
	if err := cfg.Validate(inputs); err != nil {
		return nil, err
	}
	itn := newInterner()
	procs := make([]engine.Coroutine, len(inputs))
	leaderPID := -1
	for i, in := range inputs {
		p := &process{itn: itn, cfg: cfg, input: in, hooks: h}
		procs[i] = engine.CoroutineFunc(p.run)
		if in.Leader {
			leaderPID = i
		}
	}
	// Non-leaders never decide in leader mode (the basic Section 3
	// contract of core), so the run ends with the leader's output.
	ecfg := engine.Config{Schedule: s, MaxRounds: defaultMaxRounds(s.N(), cfg), SizeOf: sizeOfMessage}
	return core.Execute(ecfg, procs, leaderPID, false, opts)
}
