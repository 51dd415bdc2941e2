// Package engine executes anonymous distributed protocols over dynamic
// networks in synchronous lock-step rounds.
//
// Protocols are written in the blocking, coroutine style of the paper's
// pseudocode: a process calls Transport.SendAndReceive once per round, which
// broadcasts its message on all incident links of the current round's
// multigraph and blocks until the multiset of messages from its neighbors is
// available. A runner enforces the round barrier, routes messages according
// to the schedule, and accounts for message sizes so congestion bounds can
// be asserted.
//
// Priority broadcast is an engine primitive: Transport.Relay parks the
// process while the router forwards its message for it, each round folding
// the neighbors' messages into the highest one by Config.Priority, and
// resumes the process only once the broadcast is over. A relaying process
// costs the router one pass over the round's links and costs no coroutine
// switch. The router keeps its books per change, not per process, and a
// round in which every live process relays and already holds the
// top-ranked message starts a quiet stretch: no graph can move any fold
// until the earliest relay ends, so the router accounts the stretch's
// rounds in one arithmetic step, with no graph and no link routed
// (Result.QuietRounds). An oblivious schedule's graphs are a function of
// the round, so they are skipped; an adaptive one's only if it declares
// its Graph stateless (AdaptiveSchedule).
//
// The runner executes every process as a pull coroutine, swept inline on
// the caller's goroutine by direct coroutine switches: no worker goroutine,
// no channel operation per round. A run is single-threaded but for its
// schedule: every process coroutine, every Config hook (Adaptive, SizeOf,
// Priority, StopWhen, Trace) and every Relay wake condition runs on the
// goroutine that called Run, one at a time. State shared by the processes
// of one run therefore needs no locks. Independent runs parallelize at the
// job level.
//
// The one exception is a dynnet.InPlaceSchedule's GraphInto. A run longer
// than 256 rounds whose rounds are bound by graph generation, with a core
// to spare among the runs in flight, hands it to one generator goroutine
// that fills a ring of 16 graphs ahead of the run, so generation overlaps
// the protocol's work. The graphs are the same pure function of the round,
// so the run is bit-identical; GraphInto must not write state the run's
// other hooks read (see dynnet.InPlaceSchedule). Run returns only after
// the generator has exited, on every exit path.
//
// Execution is deterministic: rounds are strict barriers, the delivery
// order within a round is the canonical link order of the multigraph, and
// protocols treat deliveries as multisets.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anondyn/internal/dynnet"
)

// Message is a protocol message. The engine treats messages as opaque
// values; size accounting is delegated to Config.SizeOf.
type Message any

// Coroutine is a protocol participant written in blocking style. Run must
// communicate exclusively through t and must return promptly with
// ErrStopped (possibly wrapped) once SendAndReceive reports it.
type Coroutine interface {
	// Run executes the protocol for one process and returns its output.
	Run(t *Transport) (any, error)
}

// CoroutineFunc adapts a function to the Coroutine interface.
type CoroutineFunc func(t *Transport) (any, error)

// Run implements Coroutine.
func (f CoroutineFunc) Run(t *Transport) (any, error) { return f(t) }

// ErrStopped is returned by Transport.SendAndReceive when the run has been
// cancelled (stop condition met or round budget exhausted). Coroutines must
// propagate it.
var ErrStopped = errors.New("engine: run stopped")

// errNoPriority is returned by Transport.Relay in a run without
// Config.Priority.
var errNoPriority = errors.New("engine: Relay needs Config.Priority")

// ErrMaxRounds is reported by Run when the round budget was exhausted
// before the stop condition held.
var ErrMaxRounds = errors.New("engine: maximum round budget exhausted")

// BitLimitError reports a message that exceeded the configured congestion
// limit.
type BitLimitError struct {
	Round   int
	Process int
	Bits    int
	Limit   int
}

// Error implements the error interface.
func (e *BitLimitError) Error() string {
	return fmt.Sprintf("engine: round %d: process %d sent %d bits, limit %d",
		e.Round, e.Process, e.Bits, e.Limit)
}

// AdaptiveSchedule is a reactive adversary: it chooses each round's
// multigraph AFTER seeing the messages the processes are sending this
// round (the strongly adaptive model). For deterministic protocols this
// adds no theoretical power over an oblivious adversary — the adversary
// could precompute the run — but it makes worst-case adversaries far
// easier to express (e.g. "always isolate the holders of the
// highest-priority message").
//
// An adversary whose Graph keeps no state between calls, so that a round's
// graph depends on round and sent alone, may declare it with a method
//
//	Stateless() bool
//
// that returns true. The engine then skips Graph in the rounds of a quiet
// stretch, in which every live process relays and holds the top-ranked
// message, so no graph can change what any process holds (DESIGN.md
// decision 17). Without the declaration every round calls Graph: an
// adversary that remembers what it saw, such as one that switches
// topology for good once some message has been sent, must not declare it.
type AdaptiveSchedule interface {
	// N returns the number of processes.
	N() int
	// Graph returns the round-`round` multigraph given the messages sent
	// this round; sent[pid] is process pid's message, or nil if it has
	// terminated. The slice is the engine's own and is reused between
	// rounds; implementations must not write to it or retain it past the
	// call. The engine reads the returned graph only until the next Graph
	// call, so an implementation may reuse one graph for every round.
	Graph(round int, sent []Message) *dynnet.Multigraph
}

// Config parameterizes a run.
type Config struct {
	// Schedule supplies the communication multigraph of every round.
	// Exactly one of Schedule and Adaptive must be set.
	Schedule dynnet.Schedule
	// Adaptive, if set, replaces Schedule with a reactive adversary.
	Adaptive AdaptiveSchedule
	// MaxRounds caps the run; when exceeded, Run cancels the processes and
	// returns ErrMaxRounds. It must be positive.
	MaxRounds int
	// Deadline, when positive, bounds the run's wall-clock time: once it
	// has elapsed the runner stops the processes at its next scheduling
	// point and reports a *WatchdogError (errors.Is ErrWatchdog). This is
	// the engine's watchdog — it turns hangs caused by out-of-model faults
	// or unsatisfiable stop conditions into structured failures. Zero
	// means no deadline.
	Deadline time.Duration
	// SizeOf measures a message in bits for congestion accounting. If nil,
	// sizes are not tracked and BitLimit is ignored. It is called once per
	// submitted message, in the round the message is submitted: a relay's
	// later rounds send copies whose size rides with them (DESIGN.md
	// decision 17), so SizeOf must be a pure function of the message. It
	// is always invoked from the runner's own goroutine, never
	// concurrently.
	SizeOf func(Message) int
	// BitLimit, when positive and SizeOf is set, aborts the run with a
	// *BitLimitError as soon as any message exceeds it.
	BitLimit int
	// Priority orders messages for Transport.Relay: it returns a negative
	// number, zero, or a positive number as a has lower, equal, or higher
	// priority than b. "Lower than" must be a strict weak order, so equal
	// priority is an equivalence and ranks are well defined. A relay keeps
	// the first of several equal-priority messages, in delivery order.
	// Priority is required by Relay and unused otherwise.
	Priority func(a, b Message) int
	// StopWhen, if non-nil, is evaluated at the end of every round on the
	// outputs collected so far (keyed by process index); returning true
	// cancels the remaining processes. If nil, the run continues until all
	// processes have returned.
	StopWhen func(outputs map[int]any) bool
	// Trace, if non-nil, receives every round's sent messages after
	// delivery, for debugging and engine-level tests. The engine reuses
	// the slice between rounds; callbacks must not retain it past the
	// call (copy if needed).
	Trace func(round int, sent []Message)
}

// validate checks the run parameters and returns the process count.
func (cfg *Config) validate(procs int) (int, error) {
	var n int
	switch {
	case cfg.Schedule != nil && cfg.Adaptive != nil:
		return 0, errors.New("engine: both Schedule and Adaptive set")
	case cfg.Schedule != nil:
		n = cfg.Schedule.N()
	case cfg.Adaptive != nil:
		n = cfg.Adaptive.N()
	default:
		return 0, errors.New("engine: nil schedule")
	}
	if procs != n {
		return 0, fmt.Errorf("engine: %d coroutines for %d processes", procs, n)
	}
	if cfg.MaxRounds <= 0 {
		return 0, fmt.Errorf("engine: non-positive MaxRounds %d", cfg.MaxRounds)
	}
	return n, nil
}

// Result summarizes a completed (or cancelled) run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Outputs maps the index of every process that returned a value before
	// cancellation to that value.
	Outputs map[int]any
	// MaxMessageBits is the largest message observed (0 if SizeOf is nil).
	MaxMessageBits int
	// TotalMessages counts messages sent (one per process per round).
	TotalMessages int64
	// TotalBits accumulates the size of every sent message, relayed
	// copies included.
	TotalBits int64
	// QuietRounds counts the rounds accounted in quiet stretches: rounds
	// in which every live process relayed and held the top-ranked message,
	// so the engine made no graph and routed no link (DESIGN.md decision
	// 17). They are counted in Rounds and in the totals above.
	QuietRounds int
}

// Run executes one coroutine per process over cfg.Schedule and returns the
// collected outputs. len(procs) must equal cfg.Schedule.N().
func Run(cfg Config, procs []Coroutine) (*Result, error) {
	return RunContext(context.Background(), cfg, procs)
}

// RunContext is Run with external cancellation: when ctx is cancelled the
// runner stops the run at its next round boundary, unwinds every process
// coroutine, and returns an error wrapping ctx's cause. The partial Result
// (rounds executed so far, outputs already produced) is still returned
// alongside the error.
func RunContext(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error) {
	n, err := cfg.validate(len(procs))
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return newRunner(ctx, cfg, n).run(procs)
}

type procState int

const (
	stateRunning  procState = iota + 1
	stateWaiting            // submitted this round, blocked on delivery
	stateRelaying           // parked in Relay; the router sends for it
	stateWoken              // Relay finished this round, not yet resumed
	stateDone               // returned an output
)

// live reports whether a process in state s sends and receives this round.
func (s procState) live() bool { return s == stateWaiting || s == stateRelaying }

// backend is the runner side of the Transport calls: sendAndReceive records
// the process's submission, blocks the process until the round is delivered,
// and returns its inbox or ErrStopped; relay blocks it for a whole priority
// broadcast. The runner is the only production implementation; the
// equivalence oracle in coordinator_test.go is the other.
type backend interface {
	sendAndReceive(t *Transport, msg Message) ([]Message, error)
	relay(t *Transport, msg Message, steps, hold int, wake func(Message) bool) (Message, error)
}

// Transport is the per-process communication endpoint handed to
// Coroutine.Run.
type Transport struct {
	pid   int
	b     backend
	round int
}

// PID returns the process index in [0, n). It exists for the engine's own
// bookkeeping and for test instrumentation; anonymous protocols must not
// let it influence their behaviour.
func (t *Transport) PID() int { return t.pid }

// Round returns the number of completed communication rounds for this
// process (0 before the first SendAndReceive returns).
func (t *Transport) Round() int { return t.round }

// SendAndReceive broadcasts msg on all links incident to this process in
// the current round's multigraph and blocks until the round completes,
// returning the multiset of messages received from neighbors (possibly
// empty if the process is isolated this round). It returns ErrStopped when
// the run has been cancelled.
//
// The returned slice is valid only until this process's next
// SendAndReceive or Relay call: the engine round-robins the backing storage
// between rounds. Processes that need deliveries across rounds must copy
// them.
func (t *Transport) SendAndReceive(msg Message) ([]Message, error) {
	return t.b.sendAndReceive(t, msg)
}

// Relay is priority broadcast (the paper's BroadcastStep, repeated): it
// holds msg and runs up to steps steps of hold rounds each. Every round the
// process sends its held message, exactly as a SendAndReceive call would;
// during a step it folds every message it receives, in delivery order, into
// the highest one by Config.Priority, a message replacing the fold only when
// strictly higher; at the end of the step the fold becomes the held
// message. Relay returns the fold after the last step, or after the first
// step whose fold satisfies wake (nil never wakes). wake must be a pure
// function of the message. Round advances by the rounds relayed. steps ≤ 0
// returns msg at once; hold < 1 counts as 1.
//
// The process stays parked for the whole relay while the router forwards
// for it, so a relaying round costs no coroutine switch. It returns
// ErrStopped when the run is cancelled mid-relay.
func (t *Transport) Relay(msg Message, steps, hold int, wake func(Message) bool) (Message, error) {
	return t.b.relay(t, msg, steps, hold, wake)
}
