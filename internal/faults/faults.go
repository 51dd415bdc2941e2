// Package faults provides seeded, composable, fully deterministic fault
// plans for counting simulations. A Plan wraps any oblivious
// dynnet.Schedule (Plan.Wrap) or reactive engine.AdaptiveSchedule
// (Plan.WrapAdaptive) and perturbs the communication multigraph of every
// round a fault window covers.
//
// Faults come in two classes:
//
//   - In-model faults (InModel() == true) stay inside the paper's
//     adversary: every perturbed schedule remains T-union-connected for
//     the plan's BudgetT, so the protocol MUST still produce the exact
//     count. DisconnectBurst disconnects individual rounds while keeping
//     each aligned T-round block union-connected; DiamSpike swaps the
//     topology for a shifting path (dynamic diameter Θ(n), stressing
//     DiamEstimate doubling and the reset machinery); BottleneckCut
//     funnels all traffic through a single rotating bridge; and
//     DuplicationStorm multiplies link multiplicities (the protocol's
//     answers are multiset-based, so duplication must be harmless).
//
//   - Out-of-model faults (InModel() == false) break the adversary
//     contract: LinkDrop deletes links after the fact (messages silently
//     lost, the network possibly disconnected forever), CrashRestart
//     severs one process entirely for a window (a crash with state kept —
//     on "restart" its links simply reappear). Under these the protocol
//     has no obligation to answer, but the run must fail DETECTABLY:
//     combine them with the engine watchdog (engine.Config.Deadline /
//     core.RunOptions.Deadline) so a wedged run ends in a structured
//     *engine.WatchdogError instead of a hang.
//
// Everything is a pure function of (Plan.Seed, round): plans never read
// clocks or shared state, never mutate the graphs of the wrapped
// schedule, and two runs over the same plan see byte-identical topology
// streams.
package faults

import (
	"fmt"
	"math/rand/v2"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
)

// Fault is one deterministic fault window of a Plan. Concrete faults are
// the exported structs in this package (DisconnectBurst, DiamSpike,
// BottleneckCut, DuplicationStorm, LinkDrop, CrashRestart).
type Fault interface {
	// Name returns the fault's compact spec-form keyword (see Parse).
	Name() string
	// InModel reports whether the fault keeps the perturbed schedule
	// inside the paper's T-union-connected adversary model for the plan's
	// BudgetT, in which case the protocol must still count exactly.
	InModel() bool
	// Window returns the half-open real-round interval [from, to) the
	// fault is active in; to ≤ 0 means the fault never ends.
	Window() (from, to int)

	// spec renders the fault in its Parse-able textual form.
	spec() string
	// validate checks the fault's parameters against the plan.
	validate(p *Plan) error
	// apply transforms the round-t communication graph. Implementations
	// must build a fresh graph (or return g unchanged), never mutate g.
	apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph
}

// Plan is a seeded, composable set of fault windows applied in order over
// a wrapped schedule. The zero value is an empty plan (no faults,
// BudgetT 1); build real plans with NewPlan or Parse.
type Plan struct {
	// Seed drives every randomized fault (LinkDrop). Two plans with equal
	// seeds and faults produce identical topology streams.
	Seed int64
	// BudgetT is the T-union-connectivity budget in-model faults must
	// respect: after applying them, the union of every aligned T-round
	// block is still connected whenever the wrapped schedule's was. It is
	// at least 1 and should match the protocol's Config.BlockT.
	BudgetT int
	// Faults are the fault windows, applied in slice order each round.
	Faults []Fault
}

// NewPlan validates the faults and assembles a plan. A budgetT below 1 is
// normalized to 1 (every round connected).
func NewPlan(seed int64, budgetT int, faults ...Fault) (*Plan, error) {
	if budgetT < 1 {
		budgetT = 1
	}
	p := &Plan{Seed: seed, BudgetT: budgetT, Faults: faults}
	for i, f := range faults {
		if f == nil {
			return nil, fmt.Errorf("faults: nil fault at index %d", i)
		}
		if err := f.validate(p); err != nil {
			return nil, fmt.Errorf("faults: %s fault %d: %w", f.Name(), i, err)
		}
	}
	return p, nil
}

// InModel reports whether every fault in the plan is in-model, i.e. the
// exact count is still required under this plan.
func (p *Plan) InModel() bool {
	for _, f := range p.Faults {
		if !f.InModel() {
			return false
		}
	}
	return true
}

// ValidateFor re-checks the plan against a concrete process count; it
// catches parameters (a CrashRestart PID) that cannot be validated before
// the plan is attached to a schedule.
func (p *Plan) ValidateFor(n int) error {
	for i, f := range p.Faults {
		if c, ok := f.(CrashRestart); ok && c.PID >= n {
			return fmt.Errorf("faults: crash fault %d targets process %d, but the network has %d", i, c.PID, n)
		}
	}
	return nil
}

// String renders the plan in the compact textual form accepted by Parse
// (empty for an empty plan).
func (p *Plan) String() string {
	out := ""
	for i, f := range p.Faults {
		if i > 0 {
			out += ","
		}
		out += f.spec()
	}
	return out
}

// activeAt reports whether fault f covers round t.
func activeAt(f Fault, t int) bool {
	from, to := f.Window()
	return t >= from && (to <= 0 || t < to)
}

// graphAt folds the first k faults of the plan over base's round-t graph.
// DisconnectBurst is special: it discards the fold-so-far and re-derives
// the round from the union of the whole aligned BudgetT-round block of
// that same fold (burstSlice), which is what keeps the block's union
// intact while individual rounds disconnect.
func (p *Plan) graphAt(k, t int, base func(int) *dynnet.Multigraph) *dynnet.Multigraph {
	g := base(t)
	for i := 0; i < k; i++ {
		f := p.Faults[i]
		if !activeAt(f, t) {
			continue
		}
		if f.Name() == burstName {
			g = p.burstSlice(i, t, base)
			continue
		}
		g = f.apply(p, t, g)
	}
	return g
}

// burstSlice computes round t under an active DisconnectBurst at fault
// index i: union the first i faults' graphs over the aligned BudgetT-round
// block containing t, then keep only the links whose canonical index falls
// in this round's slice. Each round of the block carries a disjoint slice,
// so single rounds are (typically) disconnected while the block's union is
// exactly the union the un-burst fold would have delivered — aligned with
// the virtual-round blocks of Config.BlockT, which start at round 1.
func (p *Plan) burstSlice(i, t int, base func(int) *dynnet.Multigraph) *dynnet.Multigraph {
	T := p.BudgetT
	if T <= 1 {
		// No budget to spread over: the burst is a no-op.
		return p.graphAt(i, t, base)
	}
	phase := (t - 1) % T
	start := t - phase
	u := p.graphAt(i, start, base)
	for tt := start + 1; tt < start+T; tt++ {
		next, err := u.Union(p.graphAt(i, tt, base))
		if err != nil {
			// All graphs of one plan share the process count.
			panic(fmt.Sprintf("faults: block union at round %d: %v", tt, err))
		}
		u = next
	}
	out := dynnet.NewMultigraph(u.N())
	for j, l := range u.CanonicalLinks() {
		if j%T == phase {
			out.MustAddLink(l.U, l.V, l.Mult)
		}
	}
	return out
}

// Schedule is a fault plan laid over an oblivious inner schedule; it
// implements dynnet.Schedule and stays a pure function of the round
// number.
type Schedule struct {
	inner dynnet.Schedule
	plan  *Plan
}

var _ dynnet.Schedule = (*Schedule)(nil)

// Wrap lays the plan over an oblivious schedule.
func (p *Plan) Wrap(inner dynnet.Schedule) *Schedule {
	return &Schedule{inner: inner, plan: p}
}

// N implements dynnet.Schedule.
func (s *Schedule) N() int { return s.inner.N() }

// Graph implements dynnet.Schedule.
func (s *Schedule) Graph(t int) *dynnet.Multigraph {
	return s.plan.graphAt(len(s.plan.Faults), t, s.inner.Graph)
}

// AdaptiveSchedule is a fault plan laid over a reactive adversary; it
// implements engine.AdaptiveSchedule. When the plan contains a
// DisconnectBurst (and BudgetT > 1), the adversary's raw graph is frozen
// at each aligned block's first round and reused for the whole block —
// the burst needs the block rounds to slice a common union, and a
// reactive adversary cannot be replayed for future rounds.
type AdaptiveSchedule struct {
	inner engine.AdaptiveSchedule
	plan  *Plan

	blockStart int
	frozen     *dynnet.Multigraph
}

var _ engine.AdaptiveSchedule = (*AdaptiveSchedule)(nil)

// WrapAdaptive lays the plan over a reactive adversary.
func (p *Plan) WrapAdaptive(inner engine.AdaptiveSchedule) *AdaptiveSchedule {
	return &AdaptiveSchedule{inner: inner, plan: p}
}

// N implements engine.AdaptiveSchedule.
func (a *AdaptiveSchedule) N() int { return a.inner.N() }

// Graph implements engine.AdaptiveSchedule.
func (a *AdaptiveSchedule) Graph(round int, sent []engine.Message) *dynnet.Multigraph {
	raw := a.inner.Graph(round, sent)
	base := func(int) *dynnet.Multigraph { return raw }
	if a.plan.BudgetT > 1 && a.plan.hasBurst() {
		start := round - (round-1)%a.plan.BudgetT
		if a.frozen == nil || a.blockStart != start {
			a.blockStart, a.frozen = start, raw.Clone()
		}
		fz := a.frozen
		base = func(int) *dynnet.Multigraph { return fz }
	}
	return a.plan.graphAt(len(a.plan.Faults), round, base)
}

func (p *Plan) hasBurst() bool {
	for _, f := range p.Faults {
		if f.Name() == burstName {
			return true
		}
	}
	return false
}

// Fault keywords, shared between the implementations and Parse.
const (
	burstName = "burst"
	spikeName = "spike"
	cutName   = "cut"
	stormName = "storm"
	dropName  = "drop"
	crashName = "crash"
)

// window returns the half-open interval of a (From, Rounds) pair; Rounds
// ≤ 0 means "never ends" (to = 0).
func window(from, rounds int) (int, int) {
	if rounds <= 0 {
		return from, 0
	}
	return from, from + rounds
}

func validateWindow(from int) error {
	if from < 1 {
		return fmt.Errorf("window must start at round ≥ 1, got %d", from)
	}
	return nil
}

func specWindow(name string, from, rounds int) string {
	return fmt.Sprintf("%s:%d:%d", name, from, rounds)
}

// DisconnectBurst is the in-model disconnection fault: while active, each
// round delivers only a 1/T slice (by canonical link index) of the union
// the fold-so-far would have delivered over the round's aligned
// BudgetT-round block. Individual rounds are typically disconnected —
// often edge-empty — but every aligned block stays union-connected, so a
// protocol run with Config.BlockT = BudgetT must still count exactly.
// Requires BudgetT ≥ 2 to have any effect.
type DisconnectBurst struct {
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
}

// Name implements Fault.
func (f DisconnectBurst) Name() string { return burstName }

// InModel implements Fault: bursts respect the T-union budget.
func (f DisconnectBurst) InModel() bool { return true }

// Window implements Fault.
func (f DisconnectBurst) Window() (int, int) { return window(f.From, f.Rounds) }

func (f DisconnectBurst) spec() string { return specWindow(burstName, f.From, f.Rounds) }

func (f DisconnectBurst) validate(p *Plan) error { return validateWindow(f.From) }

// apply implements Fault. Bursts are applied through Plan.burstSlice (the
// fold special-cases them); the plain apply — slicing just this round's
// graph — is only a defensive fallback and keeps the interface total.
func (f DisconnectBurst) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	T := p.BudgetT
	if T <= 1 {
		return g
	}
	phase := (t - 1) % T
	out := dynnet.NewMultigraph(g.N())
	for j, l := range g.CanonicalLinks() {
		if j%T == phase {
			out.MustAddLink(l.U, l.V, l.Mult)
		}
	}
	return out
}

// DiamSpike is the in-model diameter fault: while active, the round's
// graph is replaced by a shifting path (dynamic diameter Θ(n)). Every
// round stays connected, but a protocol that calibrated DiamEstimate on a
// small-diameter prefix now misses acknowledgments, forcing the
// error/reset machinery (a doubling reset) to fire.
type DiamSpike struct {
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
}

// Name implements Fault.
func (f DiamSpike) Name() string { return spikeName }

// InModel implements Fault: a connected graph every round is 1-union-
// connected.
func (f DiamSpike) InModel() bool { return true }

// Window implements Fault.
func (f DiamSpike) Window() (int, int) { return window(f.From, f.Rounds) }

func (f DiamSpike) spec() string { return specWindow(spikeName, f.From, f.Rounds) }

func (f DiamSpike) validate(p *Plan) error { return validateWindow(f.From) }

func (f DiamSpike) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	return dynnet.NewShiftingPath(g.N()).Graph(t)
}

// BottleneckCut is the in-model bandwidth fault: while active, the
// round's graph becomes two cliques joined by a single rotating bridge,
// so all cross-half information funnels through one link per round.
// Connected every round; needs n ≥ 2 to have a bridge.
type BottleneckCut struct {
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
}

// Name implements Fault.
func (f BottleneckCut) Name() string { return cutName }

// InModel implements Fault.
func (f BottleneckCut) InModel() bool { return true }

// Window implements Fault.
func (f BottleneckCut) Window() (int, int) { return window(f.From, f.Rounds) }

func (f BottleneckCut) spec() string { return specWindow(cutName, f.From, f.Rounds) }

func (f BottleneckCut) validate(p *Plan) error { return validateWindow(f.From) }

func (f BottleneckCut) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	if g.N() < 2 {
		return g
	}
	return dynnet.NewBottleneck(g.N()).Graph(t)
}

// DuplicationStorm is the in-model congestion fault: while active, every
// link's multiplicity is multiplied by Factor. Connectivity is untouched;
// the protocol's multiset bookkeeping (red-edge multiplicities, anonymous
// broadcast) must absorb the duplicates without miscounting.
type DuplicationStorm struct {
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
	// Factor multiplies every link multiplicity; it must be ≥ 2.
	Factor int
}

// Name implements Fault.
func (f DuplicationStorm) Name() string { return stormName }

// InModel implements Fault.
func (f DuplicationStorm) InModel() bool { return true }

// Window implements Fault.
func (f DuplicationStorm) Window() (int, int) { return window(f.From, f.Rounds) }

func (f DuplicationStorm) spec() string {
	return fmt.Sprintf("%s:%d:%d:%d", stormName, f.From, f.Rounds, f.Factor)
}

func (f DuplicationStorm) validate(p *Plan) error {
	if err := validateWindow(f.From); err != nil {
		return err
	}
	if f.Factor < 2 {
		return fmt.Errorf("duplication factor must be ≥ 2, got %d", f.Factor)
	}
	return nil
}

func (f DuplicationStorm) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	out := dynnet.NewMultigraph(g.N())
	for _, l := range g.CanonicalLinks() {
		out.MustAddLink(l.U, l.V, l.Mult*f.Factor)
	}
	return out
}

// LinkDrop is the OUT-OF-MODEL message-loss fault: while active, each
// link of the round's graph is independently deleted with probability P,
// decided by a PCG stream keyed on (Plan.Seed, round) — deterministic
// across runs, independent across rounds. Dropping links after the
// schedule chose them violates the adversary contract (the union budget
// can break arbitrarily), so runs under LinkDrop must be paired with a
// watchdog deadline.
type LinkDrop struct {
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
	// P is the per-link drop probability in (0, 1].
	P float64
}

// Name implements Fault.
func (f LinkDrop) Name() string { return dropName }

// InModel implements Fault: dropped links break the union budget.
func (f LinkDrop) InModel() bool { return false }

// Window implements Fault.
func (f LinkDrop) Window() (int, int) { return window(f.From, f.Rounds) }

func (f LinkDrop) spec() string {
	return fmt.Sprintf("%s:%d:%d:%g", dropName, f.From, f.Rounds, f.P)
}

func (f LinkDrop) validate(p *Plan) error {
	if err := validateWindow(f.From); err != nil {
		return err
	}
	if f.P <= 0 || f.P > 1 {
		return fmt.Errorf("drop probability must be in (0, 1], got %g", f.P)
	}
	return nil
}

func (f LinkDrop) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	// Threshold comparison over the top 53 bits of the PCG stream keeps
	// the decision exact for P = 1 (every draw is below 2^53).
	threshold := uint64(f.P * (1 << 53))
	var pcg rand.PCG
	pcg.Seed(uint64(p.Seed)^0x64726f70, uint64(t))
	out := dynnet.NewMultigraph(g.N())
	for _, l := range g.CanonicalLinks() {
		if pcg.Uint64()>>11 < threshold {
			continue // dropped
		}
		out.MustAddLink(l.U, l.V, l.Mult)
	}
	return out
}

// CrashRestart is the OUT-OF-MODEL process fault: while active, every
// link incident to PID is removed — the process is crashed, silently
// unreachable, yet the engine still runs it (a crash with state kept: on
// "restart", when the window closes, its links simply reappear). A
// crashed leader wedges the whole protocol in its error phase, which is
// exactly the hang the watchdog must convert into a structured failure.
type CrashRestart struct {
	// PID is the engine index of the crashed process.
	PID int
	// From is the first faulty round (1-based); Rounds is the window
	// length (≤ 0: forever).
	From, Rounds int
}

// Name implements Fault.
func (f CrashRestart) Name() string { return crashName }

// InModel implements Fault: an unreachable process breaks every union
// budget.
func (f CrashRestart) InModel() bool { return false }

// Window implements Fault.
func (f CrashRestart) Window() (int, int) { return window(f.From, f.Rounds) }

func (f CrashRestart) spec() string {
	return fmt.Sprintf("%s:%d:%d:%d", crashName, f.PID, f.From, f.Rounds)
}

func (f CrashRestart) validate(p *Plan) error {
	if err := validateWindow(f.From); err != nil {
		return err
	}
	if f.PID < 0 {
		return fmt.Errorf("negative process index %d", f.PID)
	}
	return nil
}

func (f CrashRestart) apply(p *Plan, t int, g *dynnet.Multigraph) *dynnet.Multigraph {
	out := dynnet.NewMultigraph(g.N())
	for _, l := range g.CanonicalLinks() {
		if l.U == f.PID || l.V == f.PID {
			continue
		}
		out.MustAddLink(l.U, l.V, l.Mult)
	}
	return out
}
