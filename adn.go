// Package anondyn is a library for computation in congested anonymous
// dynamic networks, reproducing Di Luna–Viglietta, "Brief Announcement:
// Efficient Computation in Congested Anonymous Dynamic Networks" (PODC
// 2023).
//
// The library provides:
//
//   - A dynamic-network substrate (Schedule, Multigraph) with adversarial
//     schedule generators.
//   - A synchronous round engine running anonymous processes in lock-step
//     with exact message-size accounting.
//   - History trees (the FOCS 2022 structure), an oracle that builds the
//     true history tree of any run, and a cardinality solver.
//   - The paper's congested Counting algorithm and its Section 5
//     extensions: Generalized Counting, simultaneous termination,
//     leaderless frequency computation, and T-union-connected networks.
//   - The non-congested full-information protocol (the linear backend)
//     and the randomized token-forwarding baseline it is compared with,
//     and the benchmark harness that regenerates every experiment in
//     EXPERIMENTS.md.
//
// # Quick start
//
//	sched := anondyn.RandomConnected(8, 0.3, 1) // 8 processes, dynamic graph
//	inputs := anondyn.LeaderInputs(8)           // process 0 is the leader
//	res, err := anondyn.Count(sched, inputs)
//	if err != nil { ... }
//	fmt.Println(res.N) // 8, computed with O(log n)-bit messages
//
// The subpackages under internal/ hold the implementation; this package
// re-exports the stable API surface.
package anondyn

import (
	"anondyn/internal/adversary"
	"anondyn/internal/baseline"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// Re-exported types. Aliases keep the internal packages as the single
// source of truth while exposing a stable import path.
type (
	// Multigraph is one round's communication graph.
	Multigraph = dynnet.Multigraph
	// Link is one (multi-)edge of a Multigraph.
	Link = dynnet.Link
	// Schedule is a dynamic network: the round-by-round graph adversary.
	Schedule = dynnet.Schedule

	// Input is a process's initial state: leader flag and input value.
	Input = historytree.Input
	// Tree is a history tree.
	Tree = historytree.Tree
	// Node is a history-tree node (an indistinguishability class).
	Node = historytree.Node
	// CountResult is the outcome of counting on a history tree.
	CountResult = historytree.CountResult
	// FrequencyResult is the leaderless frequency answer.
	FrequencyResult = historytree.FrequencyResult
	// OracleRun is a ground-truth history tree built from a schedule.
	OracleRun = historytree.Run

	// Mode selects the leader or leaderless protocol.
	Mode = core.Mode
	// Config parameterizes the congested protocol.
	Config = core.Config
	// RunOptions bundles engine-level knobs.
	RunOptions = core.RunOptions
	// RunResult is the outcome of a protocol run.
	RunResult = core.RunResult
	// RunStats carries a run's measurements.
	RunStats = core.RunStats
	// Outcome is one process's result.
	Outcome = core.Outcome
	// Recorder collects instrumentation from a run.
	Recorder = core.Recorder

	// TokenForwardResult is the outcome of the token-forwarding baseline.
	TokenForwardResult = baseline.TokenForwardResult
)

// Protocol modes.
const (
	// ModeLeader is the Section 3 algorithm with a unique leader.
	ModeLeader = core.ModeLeader
	// ModeLeaderless is the Section 5 leaderless extension.
	ModeLeaderless = core.ModeLeaderless
)

// NewGraph returns an empty multigraph on n processes.
func NewGraph(n int) *Multigraph { return dynnet.NewMultigraph(n) }

// Static returns a schedule that repeats g forever.
func Static(g *Multigraph) Schedule { return dynnet.NewStatic(g) }

// Graphs returns a schedule that plays the given graphs in order and then
// repeats the last one.
func Graphs(gs ...*Multigraph) (Schedule, error) { return dynnet.NewSequence(gs...) }

// ScheduleFunc adapts a function to the Schedule interface.
func ScheduleFunc(n int, f func(t int) *Multigraph) Schedule { return dynnet.NewFunc(n, f) }

// RandomConnected returns a schedule presenting an independent random
// connected graph (spanning tree plus density p) at every round.
func RandomConnected(n int, p float64, seed int64) Schedule {
	return dynnet.NewRandomConnected(n, p, seed)
}

// RotatingStar returns the rotating-star adversary.
func RotatingStar(n int) Schedule { return dynnet.NewRotatingStar(n) }

// ShiftingPath returns the shifting-path adversary (diameter Θ(n)).
func ShiftingPath(n int) Schedule { return dynnet.NewShiftingPath(n) }

// Bottleneck returns the two-clique bottleneck adversary.
func Bottleneck(n int) Schedule { return dynnet.NewBottleneck(n) }

// UnionConnected derives a T-union-connected schedule from a connected one
// by spreading each round's links over T consecutive rounds.
func UnionConnected(inner Schedule, t int) (Schedule, error) {
	return dynnet.NewUnionConnected(inner, t)
}

// Path, Cycle, Complete and Star build the standard fixed topologies.
func Path(n int) *Multigraph     { return dynnet.Path(n) }
func Cycle(n int) *Multigraph    { return dynnet.Cycle(n) }
func Complete(n int) *Multigraph { return dynnet.Complete(n) }
func Star(n, center int) *Multigraph {
	return dynnet.Star(n, center)
}

// LeaderInputs returns n inputs with process 0 flagged as the unique
// leader and all values zero — the input assignment of the basic Counting
// problem.
func LeaderInputs(n int) []Input {
	in := make([]Input, n)
	if n > 0 {
		in[0].Leader = true
	}
	return in
}

// Count runs the paper's congested Counting algorithm (Section 3, with a
// unique leader) over the schedule and returns the result. It is
// equivalent to Run with Config{Mode: ModeLeader}.
func Count(s Schedule, inputs []Input) (*RunResult, error) {
	return core.Run(s, inputs, Config{Mode: ModeLeader}, RunOptions{})
}

// Compute evaluates an arbitrary function of the multiset of input values,
// the "general computation" of Section 5: Generalized Counting is complete
// for the class of multi-aggregate functions, so once the leader knows the
// exact input multiset, any function of it follows locally. The supplied
// function receives the computed multiset (input → number of processes
// holding it, leader included) and its return value is handed back along
// with the run result.
//
// Example — the sum of all inputs:
//
//	res, total, err := anondyn.Compute(sched, inputs,
//	    func(ms map[anondyn.Input]int) any {
//	        sum := int64(0)
//	        for in, c := range ms {
//	            sum += in.Value * int64(c)
//	        }
//	        return sum
//	    })
func Compute(s Schedule, inputs []Input, f func(multiset map[Input]int) any) (*RunResult, any, error) {
	cfg := Config{Mode: ModeLeader, BuildInputLevel: true}
	res, err := core.Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		return nil, nil, err
	}
	return res, f(res.Multiset), nil
}

// Run executes the configured protocol over the schedule; see Config for
// the available extensions (Generalized Counting, simultaneous
// termination, leaderless mode, T-union-connected networks).
func Run(s Schedule, inputs []Input, cfg Config, opts RunOptions) (*RunResult, error) {
	return core.Run(s, inputs, cfg, opts)
}

// NewRecorder returns an instrumentation recorder to pass in Config.
func NewRecorder() *Recorder { return core.NewRecorder() }

// BuildHistoryTree constructs the ground-truth history tree of the first
// `rounds` rounds of the schedule under the given inputs (the oracle used
// by the test and benchmark suites).
func BuildHistoryTree(s Schedule, inputs []Input, rounds int) (*OracleRun, error) {
	return historytree.Build(s, inputs, rounds)
}

// CountTree runs the cardinality solver on a history tree whose levels
// 0..completeLevels are complete.
func CountTree(t *Tree, completeLevels int) (CountResult, error) {
	return historytree.Count(t, completeLevels)
}

// TreeFrequencies runs the leaderless frequency solver on a history tree.
func TreeFrequencies(t *Tree, completeLevels int) (FrequencyResult, error) {
	return historytree.Frequencies(t, completeLevels)
}

// RenderTree renders a history tree level by level in ASCII.
func RenderTree(t *Tree) string { return historytree.RenderASCII(t) }

// RenderTreeDOT renders a history tree in Graphviz DOT format.
func RenderTreeDOT(t *Tree, name string) string { return historytree.RenderDOT(t, name) }

// RunNonCongested executes the non-congested full-information protocol
// (Di Luna–Viglietta, arXiv 2204.02128) in leader mode: Θ(n) rounds, but
// messages that grow to Θ(n³ log n) bits. maxRounds caps the run; 0
// derives a default from n.
func RunNonCongested(s Schedule, inputs []Input, maxRounds int) (*RunResult, error) {
	return linear.Run(s, inputs, linear.Config{Mode: ModeLeader}, RunOptions{MaxRounds: maxRounds})
}

// RunTokenForward executes the randomized token-forwarding baseline.
func RunTokenForward(s Schedule, bound int, seed int64) (*TokenForwardResult, error) {
	return baseline.RunTokenForward(s, bound, seed)
}

// AdaptiveSchedule is a reactive adversary that picks each round's graph
// after seeing the messages in flight (strongly adaptive model).
type AdaptiveSchedule = engine.AdaptiveSchedule

// Isolator is the worst-case adaptive adversary for the protocol's
// priority broadcast: it keeps the highest-priority message as far from
// the target process as a connected topology allows.
func Isolator(n, target int) AdaptiveSchedule { return adversary.NewIsolator(n, target) }

// RunAdaptive executes the protocol against a reactive adversary.
func RunAdaptive(a AdaptiveSchedule, inputs []Input, cfg Config, opts RunOptions) (*RunResult, error) {
	return core.RunAdaptive(a, inputs, cfg, opts)
}
