// Package service turns the one-shot counting simulation into a long-lived
// simulation-as-a-service daemon: an HTTP/JSON job queue over the engine.
//
// The pieces:
//
//   - JobSpec (spec.go): the canonical description of one simulation — the
//     same parameter surface as cmd/cadn — with validation and a stable
//     content hash used as the result-cache key.
//   - Manager (jobs.go): a bounded worker pool executing jobs with
//     per-job cancellation and per-round progress events.
//   - Cache (cache.go): a deduplicating LRU of results keyed by spec hash,
//     so identical deterministic runs are served without re-simulation.
//   - Metrics (metrics.go): run counters exposed at /v1/metrics.
//   - Server (server.go): the net/http surface (submit, status, cancel,
//     NDJSON event streaming) with graceful shutdown.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// Topologies supported by JobSpec, in the order they are documented.
var Topologies = []string{
	"random", "path", "cycle", "complete", "star",
	"rotating-star", "shifting-path", "bottleneck", "isolator",
}

// JobSpec is the canonical description of one counting simulation. It
// mirrors the cmd/cadn flag surface so any CLI invocation can be replayed
// as a service job. The zero value is not valid; Normalize fills defaults.
type JobSpec struct {
	// N is the number of processes.
	N int `json:"n"`
	// Protocol selects the counting backend: "" or "congested" for the
	// PODC 2023 congested protocol (internal/core, O(T·n³ log n) rounds,
	// O(log n)-bit messages), "linear" for the FOCS 2022 full-information
	// protocol (internal/linear, Θ(T·n) rounds, messages growing to
	// Θ(n³ log n) bits). Answers agree (pinned by the cross-protocol
	// equivalence suite) but rounds and bit accounting differ, so the spec
	// hash keeps it. The congested-only extensions (halt, fine, batch,
	// keepAll, the isolator adversary) are rejected under "linear".
	Protocol string `json:"protocol,omitempty"`
	// Topology selects the adversary (see Topologies). "isolator" is the
	// strongly adaptive worst case; the rest are oblivious schedules.
	Topology string `json:"topology,omitempty"`
	// Density is the extra-edge probability of the random adversary.
	Density float64 `json:"p,omitempty"`
	// Seed seeds the adversary RNG (runs are deterministic given the spec).
	Seed int64 `json:"seed,omitempty"`
	// BlockT is the dynamic disconnectivity (T-union-connected extension).
	BlockT int `json:"T,omitempty"`
	// Leaderless runs the Section 5 leaderless frequency algorithm.
	Leaderless bool `json:"leaderless,omitempty"`
	// Inputs are per-process input values (enables Generalized Counting).
	Inputs []int64 `json:"inputs,omitempty"`
	// Halt enables simultaneous termination.
	Halt bool `json:"halt,omitempty"`
	// BitLimit aborts the run if any message exceeds this many bits.
	BitLimit int `json:"bitLimit,omitempty"`
	// Fine enables fine-grained resets (Section 5 "Optimized running time").
	Fine bool `json:"fine,omitempty"`
	// Batch batches up to this many observations per Edge message.
	Batch int `json:"batch,omitempty"`
	// KeepAll disables the Section 3.4 spanning-tree restriction (ablation).
	KeepAll bool `json:"keepAll,omitempty"`
	// MaxRounds caps the run; 0 derives the default O(T·n³ log n) budget.
	MaxRounds int `json:"maxRounds,omitempty"`
	// Faults is a fault-plan spec layered over the adversary (see
	// internal/faults.Parse for the grammar, e.g. "spike:8:0"). Empty
	// means fault-free. Out-of-model plans (drop, crash) require a
	// deadline, since the protocol's termination guarantee no longer
	// applies under them.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault plan's RNG (only LinkDrop consumes it).
	FaultSeed int64 `json:"faultSeed,omitempty"`
	// DeadlineMS arms the engine watchdog: a run still going after this
	// many milliseconds of wall clock terminates with a structured
	// watchdog error. 0 disarms it (fault-free and in-model runs always
	// terminate on their own).
	DeadlineMS int `json:"deadlineMS,omitempty"`
}

// DecodeStrict decodes one JSON value from r into v and rejects any field
// v does not declare, so a misspelled or retired spec field (say
// "lederless" or "scheduler") is an error naming that field instead of a
// silently defaulted knob. The backend and the coordinator decode every
// request body with it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Normalize fills defaulted fields in place so that equivalent specs hash
// identically.
func (s *JobSpec) Normalize() {
	if s.Protocol == "congested" {
		s.Protocol = "" // the default, spelled out
	}
	if s.Topology == "" {
		s.Topology = "random"
	}
	if s.Topology == "random" && s.Density == 0 {
		s.Density = 0.3
	}
	if s.Topology != "random" {
		s.Density = 0 // only the random adversary consumes it
	}
	if s.BlockT < 1 {
		s.BlockT = 1
	}
	if len(s.Inputs) == 0 {
		s.Inputs = nil
	}
	s.Faults = strings.TrimSpace(s.Faults)
	if s.Faults == "" {
		s.FaultSeed = 0 // meaningless without a plan; keep the hash stable
	}
}

// Validate checks the spec for structural errors. It assumes Normalize has
// run (Validate normalizes a copy itself, so calling it on a raw spec is
// safe).
func (s JobSpec) Validate() error {
	s.Normalize()
	if s.N <= 0 {
		return fmt.Errorf("n must be positive, got %d", s.N)
	}
	known := false
	for _, t := range Topologies {
		if s.Topology == t {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown topology %q (have %v)", s.Topology, Topologies)
	}
	if s.Density < 0 || s.Density > 1 {
		return fmt.Errorf("density p must be in [0,1], got %g", s.Density)
	}
	if s.Batch < 0 {
		return fmt.Errorf("batch must be non-negative, got %d", s.Batch)
	}
	if s.BitLimit < 0 {
		return fmt.Errorf("bitLimit must be non-negative, got %d", s.BitLimit)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("maxRounds must be non-negative, got %d", s.MaxRounds)
	}
	if s.Protocol != "" && s.Protocol != "linear" {
		return fmt.Errorf("unknown protocol %q (have congested, linear)", s.Protocol)
	}
	if s.Protocol == "linear" {
		// The congested protocol's acknowledgment/reset machinery and its
		// extensions have no counterpart in the full-information backend.
		switch {
		case s.Halt:
			return fmt.Errorf("halt is congested-only (the linear protocol has no Halt broadcast)")
		case s.Fine:
			return fmt.Errorf("fine-grained resets are congested-only (the linear protocol has no resets)")
		case s.Batch > 0:
			return fmt.Errorf("batch is congested-only (the linear protocol already ships whole views)")
		case s.KeepAll:
			return fmt.Errorf("keepAll is congested-only (the linear protocol has no virtual network)")
		case s.Topology == "isolator":
			return fmt.Errorf("the isolator adversary targets the congested protocol's leader; protocol linear unsupported")
		}
	}
	if len(s.Inputs) > 0 && len(s.Inputs) != s.N {
		return fmt.Errorf("%d input values for %d processes", len(s.Inputs), s.N)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("deadlineMS must be non-negative, got %d", s.DeadlineMS)
	}
	if s.Faults != "" {
		plan, err := faults.Parse(s.Faults, s.BlockT, s.FaultSeed)
		if err != nil {
			return fmt.Errorf("invalid fault plan: %w", err)
		}
		if err := plan.ValidateFor(s.N); err != nil {
			return fmt.Errorf("invalid fault plan: %w", err)
		}
		if !plan.InModel() && s.DeadlineMS == 0 {
			return fmt.Errorf("fault plan %q is out-of-model (termination no longer guaranteed); set deadlineMS", s.Faults)
		}
	}
	if s.Leaderless {
		if len(s.Inputs) == 0 {
			return fmt.Errorf("leaderless mode requires per-process inputs")
		}
		if s.Halt {
			return fmt.Errorf("leaderless mode already terminates simultaneously; halt is leader-mode only")
		}
		if s.Fine {
			return fmt.Errorf("fine-grained resets are leader-mode only (leaderless has no resets)")
		}
		if s.Topology == "isolator" {
			return fmt.Errorf("the isolator adversary targets the leader; leaderless mode unsupported")
		}
	}
	if s.Topology == "isolator" && s.BlockT > 1 {
		return fmt.Errorf("the isolator adversary is always connected; T=%d unsupported", s.BlockT)
	}
	return nil
}

// Hash returns the canonical content hash of the spec: the SHA-256 of its
// normalized JSON encoding with keys in a fixed order. Two specs describing
// the same deterministic simulation hash identically, so the hash is the
// result-cache key.
func (s JobSpec) Hash() string {
	s.Normalize()
	// Protocol stays in the hash: both protocols return the same answer
	// (the cross-protocol equivalence suite pins that), but the cached
	// Result also carries rounds and bit accounting, which differ
	// radically between them — one cache entry cannot serve both.
	// The deadline only decides when a non-terminating run is abandoned;
	// completed results are independent of it, and failed runs are never
	// cached, so it must not fragment the cache either. Faults and
	// FaultSeed DO shape the simulation and stay in the hash.
	s.DeadlineMS = 0
	// encoding/json marshals struct fields in declaration order, which is
	// stable; inputs are a slice, also stable. A round-trip through a map
	// would lose that, so marshal the struct directly.
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec contains only marshalable field types.
		panic(fmt.Sprintf("service: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// inputs materializes the per-process initial states.
func (s JobSpec) inputs() []historytree.Input {
	in := make([]historytree.Input, s.N)
	if !s.Leaderless && s.N > 0 {
		in[0].Leader = true
	}
	for i, v := range s.Inputs {
		in[i].Value = v
	}
	return in
}

// schedule builds the oblivious adversary, or nil for "isolator".
func (s JobSpec) schedule() (dynnet.Schedule, error) {
	var sched dynnet.Schedule
	switch s.Topology {
	case "random":
		sched = dynnet.NewRandomConnected(s.N, s.Density, s.Seed)
	case "path":
		sched = dynnet.NewStatic(dynnet.Path(s.N))
	case "cycle":
		sched = dynnet.NewStatic(dynnet.Cycle(s.N))
	case "complete":
		sched = dynnet.NewStatic(dynnet.Complete(s.N))
	case "star":
		sched = dynnet.NewStatic(dynnet.Star(s.N, 0))
	case "rotating-star":
		sched = dynnet.NewRotatingStar(s.N)
	case "shifting-path":
		sched = dynnet.NewShiftingPath(s.N)
	case "bottleneck":
		sched = dynnet.NewBottleneck(s.N)
	case "isolator":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", s.Topology)
	}
	if s.BlockT > 1 {
		return dynnet.NewUnionConnected(sched, s.BlockT)
	}
	return sched, nil
}

// config derives the protocol configuration.
func (s JobSpec) config() core.Config {
	cfg := core.Config{
		Mode:             core.ModeLeader,
		BuildInputLevel:  len(s.Inputs) > 0,
		SimultaneousHalt: s.Halt,
		BlockT:           s.BlockT,
		MaxLevels:        3*s.N + 8,
		FineGrainedReset: s.Fine,
		BatchSize:        s.Batch,
		KeepAllLinks:     s.KeepAll,
	}
	if s.Leaderless {
		cfg.Mode = core.ModeLeaderless
		cfg.DiamBound = s.N * s.BlockT
		cfg.SimultaneousHalt = false
	}
	return cfg
}

// linearConfig derives the linear-protocol configuration. The service
// convention DiamBound = N·BlockT carries over from leaderless congested
// runs, and so does the MaxLevels divergence guard.
func (s JobSpec) linearConfig() linear.Config {
	cfg := linear.Config{
		Mode:      core.ModeLeader,
		BlockT:    s.BlockT,
		MaxLevels: 3*s.N + 8,
	}
	if s.Leaderless {
		cfg.Mode = core.ModeLeaderless
		cfg.DiamBound = s.N * s.BlockT
	}
	return cfg
}

// Run validates the spec and executes the simulation it describes,
// cancellable through ctx. The trace hook (may be nil) observes every
// round's sent messages — the daemon uses it to stream per-round progress.
// This is the single run-config→result entry point shared by cmd/cadn and
// the service; the result is deterministic in the spec.
func (s JobSpec) Run(ctx context.Context, traceHook func(round int, sent []engine.Message)) (*core.RunResult, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts := core.RunOptions{
		Ctx:       ctx,
		MaxRounds: s.MaxRounds,
		BitLimit:  s.BitLimit,
		Deadline:  time.Duration(s.DeadlineMS) * time.Millisecond,
		Trace:     traceHook,
	}
	var plan *faults.Plan
	if s.Faults != "" {
		var err error
		plan, err = faults.Parse(s.Faults, s.BlockT, s.FaultSeed)
		if err != nil {
			return nil, err
		}
	}
	if s.Topology == "isolator" {
		var adv engine.AdaptiveSchedule = adversary.NewIsolator(s.N, 0)
		if plan != nil {
			adv = plan.WrapAdaptive(adv)
		}
		return core.RunAdaptive(adv, s.inputs(), s.config(), opts)
	}
	sched, err := s.schedule()
	if err != nil {
		return nil, err
	}
	if plan != nil {
		sched = plan.Wrap(sched)
	}
	if s.Protocol == "linear" {
		return linear.Run(sched, s.inputs(), s.linearConfig(), opts)
	}
	return core.Run(sched, s.inputs(), s.config(), opts)
}

// Result is the JSON shape of a completed run, shared by the HTTP API and
// the result cache.
type Result struct {
	// N is the computed process count (leader mode).
	N int `json:"n,omitempty"`
	// Multiset is the Generalized Counting answer keyed by the input's
	// compact rendering (e.g. "L:0", "7").
	Multiset map[string]int `json:"multiset,omitempty"`
	// Frequencies is the leaderless answer: shares of MinSize.
	Frequencies map[string]int `json:"frequencies,omitempty"`
	// MinSize is the minimal network size of the leaderless answer.
	MinSize int `json:"minSize,omitempty"`
	// Stats carries the run's measurements.
	Stats core.RunStats `json:"stats"`
}

// NewResult converts a core run result into its service form.
func NewResult(r *core.RunResult) *Result {
	out := &Result{N: r.N, Stats: r.Stats}
	if len(r.Multiset) > 0 {
		out.Multiset = make(map[string]int, len(r.Multiset))
		for in, c := range r.Multiset {
			out.Multiset[in.String()] = c
		}
	}
	if r.Frequencies != nil {
		out.MinSize = r.Frequencies.MinSize
		out.Frequencies = make(map[string]int, len(r.Frequencies.Shares))
		for in, share := range r.Frequencies.Shares {
			out.Frequencies[in.String()] = share
		}
	}
	return out
}
