package core

import (
	"fmt"

	"anondyn/internal/historytree"
)

// Mode selects between the leader-based algorithm of Section 3 and the
// leaderless extension of Section 5.
type Mode int

// Protocol modes.
const (
	// ModeLeader is the Section 3 algorithm: exactly one process has the
	// leader flag, broadcasts are acknowledged by the leader, and errors
	// trigger leader-initiated resets with doubling diameter estimates.
	ModeLeader Mode = iota + 1
	// ModeLeaderless is the Section 5 extension: no leader, but a known
	// upper bound D on the dynamic diameter. Broadcast phases of D rounds
	// are reliable, so no acknowledgment, error, or reset machinery runs.
	ModeLeaderless
)

// Config parameterizes the protocol.
type Config struct {
	// Mode selects the leader or leaderless algorithm.
	Mode Mode
	// BuildInputLevel enables the Generalized Counting extension: level 0
	// of the VHT is constructed from the processes' input values via Input
	// broadcasts (Section 5, "General computation"). When false, level 0 is
	// the pre-agreed {leader, non-leader} partition of Listing 1 and input
	// values are ignored. Leaderless mode always builds the input level.
	BuildInputLevel bool
	// SimultaneousHalt enables the Section 5 termination protocol: once
	// the leader knows n it broadcasts a maximum-priority Halt message and
	// every process outputs n at the same round. When false, only the
	// leader terminates (the basic Section 3 contract) and the caller stops
	// the run once the leader's output is available.
	SimultaneousHalt bool
	// DiamBound is the known upper bound D on the dynamic diameter,
	// required in leaderless mode and ignored otherwise.
	DiamBound int
	// FineGrainedReset enables the Section 5 "Optimized running time"
	// refinement: errors and resets reference the index of the accepted
	// message that went wrong rather than a whole level, so a reset rewinds
	// the VHT construction exactly to the faulty broadcast (replaying the
	// journal of accepted messages) instead of redoing the level from its
	// begin round. This removes the log n factor: O(n³) total rounds.
	// Leader mode only.
	FineGrainedReset bool
	// KeepAllLinks is an ablation of the Section 3.4 virtual-network
	// construction: the spanning-tree restriction (LevelGraph +
	// PreventCyclesInLevelGraph) is disabled, so the virtual network keeps
	// every link of the selected round. The algorithm stays correct but
	// loses the Lemma 4.6 amortization: red edges may reach Θ(n³) over
	// O(n) levels and the running time grows accordingly (experiment E12).
	KeepAllLinks bool
	// BatchSize, when ≥ 2, enables the Section 6 tradeoff remark: each
	// Edge message carries up to BatchSize consecutive ObsList entries
	// (the follow-up entries chain onto the freshly created temporary
	// nodes, whose IDs all processes agree on). Messages grow to
	// O(BatchSize·log n) bits while the number of broadcasts shrinks;
	// with BatchSize ≈ n the paper predicts O(n²) rounds. Batching
	// implies KeepAllLinks, because a batch is fixed at send time and
	// cannot react to cycle pruning triggered by its own earlier entries.
	BatchSize int
	// BlockT is the dynamic disconnectivity T of the network. Values > 1
	// enable the Section 5 block simulation: each virtual round spans T
	// real rounds, resending the same message and accumulating deliveries.
	// 0 and 1 both mean an always-connected network.
	BlockT int
	// MaxLevels aborts a process with an error if the VHT grows beyond
	// this many levels (0 = unlimited). Termination is guaranteed by the
	// paper within 3n levels, so tests set this to catch divergence.
	MaxLevels int
	// Recorder, if non-nil, receives instrumentation events (resets,
	// accepted messages, per-level ID assignments). Nil disables recording.
	Recorder *Recorder

	// eager makes the leader output as soon as the solver resolves,
	// skipping the confirmation window (see Process.mainLoop), as the
	// paper's pseudocode does. It relies on the view-robustness of the
	// FOCS 2022 counting black box, which this solver lacks, and returns a
	// wrong count on a pinned in-model schedule; only tests set it, as the
	// negative control of the window (confirmation_test.go).
	eager bool
}

// Validate checks the configuration against the inputs it will run with.
func (c Config) Validate(inputs []historytree.Input) error {
	leaders := 0
	for _, in := range inputs {
		if in.Leader {
			leaders++
		}
	}
	switch c.Mode {
	case ModeLeader:
		if leaders != 1 {
			return fmt.Errorf("core: leader mode requires exactly 1 leader, got %d", leaders)
		}
	case ModeLeaderless:
		if leaders != 0 {
			return fmt.Errorf("core: leaderless mode forbids leader flags, got %d", leaders)
		}
		if c.DiamBound <= 0 {
			return fmt.Errorf("core: leaderless mode requires a positive DiamBound")
		}
		if c.FineGrainedReset {
			return fmt.Errorf("core: fine-grained resets apply to leader mode only (leaderless has no resets)")
		}
	default:
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	if c.BlockT < 0 {
		return fmt.Errorf("core: negative BlockT %d", c.BlockT)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("core: negative BatchSize %d", c.BatchSize)
	}
	return nil
}

// keepAllLinks reports whether the spanning-tree restriction is disabled,
// either explicitly or implicitly by batching.
func (c Config) keepAllLinks() bool {
	return c.KeepAllLinks || c.BatchSize >= 2
}

// blockT normalizes BlockT to ≥ 1.
func (c Config) blockT() int {
	if c.BlockT < 1 {
		return 1
	}
	return c.BlockT
}

// buildsInputLevel reports whether level 0 is constructed from inputs.
func (c Config) buildsInputLevel() bool {
	return c.BuildInputLevel || c.Mode == ModeLeaderless
}

// Outcome is the per-process result of a run.
type Outcome struct {
	// N is the computed number of processes (leader mode). For non-leader
	// processes it is only set under SimultaneousHalt, where it is learned
	// from the Halt message.
	N int
	// Multiset is the Generalized Counting answer (leader only; nil for
	// processes that learned N from a Halt message).
	Multiset map[historytree.Input]int
	// Frequencies is the leaderless answer (nil in leader mode).
	Frequencies *historytree.FrequencyResult
	// VHT is the process's virtual history tree at termination (nil for
	// processes that terminated via Halt mid-level).
	VHT *historytree.Tree
	// Levels is the number of VHT levels completed at termination.
	Levels int
	// FinalDiamEstimate is the process's diameter estimate at termination.
	FinalDiamEstimate int
	// FinalRound is the (virtual) round at which the process produced its
	// output.
	FinalRound int
	// Solver reports the counting solver's accumulated work (calls, levels
	// consumed, rebuilds after resets, time inside the solver).
	Solver historytree.SolverStats
}
