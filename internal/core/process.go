package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// Process is one anonymous protocol participant. It holds the internal
// variables of Listing 1 and implements engine.Coroutine; its Run method is
// the Main function of Listing 2 plus the Section 5 extensions selected by
// the Config.
type Process struct {
	cfg   Config
	input historytree.Input
	rec   *Recorder

	// group, when non-nil, is the run's cross-process sharing group (see
	// share.go): vht, temp, and lg point into shared structures and every
	// structural mutation is funneled through the group's operation log.
	// member is this process's index in the group. A fork (divergence from
	// the shared log) clears group and the process continues on private
	// copies rebuilt by replay; forkedFrom remembers the group so the next
	// level reset — which rolls everyone back to an agreed snapshot — can
	// rejoin it.
	group      *shareGroup
	member     int
	forkedFrom *shareGroup

	tr transport

	// rxBuf is the wire-message conversion scratch of sendAndReceive,
	// reused across rounds (see the validity-window note there); rxRaw is
	// the engine's last raw delivery slice, retained so boxFor can recycle
	// the received heap boxes at the next send (read strictly before the
	// next engine call, inside the engine's validity window). relayTop is
	// the last relay's result box, and txCache a small ring of recently
	// created boxes, covering re-originated proposals across phases. Every
	// box is immutable once published (see boxFor), so the engine may hold
	// on to any of them.
	rxBuf       []wire.Message
	rxRaw       []engine.Message
	relayTop    *wire.Message
	txCache     [4]txBox
	txCacheNext int

	// Internal variables (Listing 1).
	myID         int
	initialID    int
	nextFreshID  int
	vht          *historytree.Tree
	currentLevel int
	temp         *tempVHT
	lg           *levelGraph
	obsList      []obs
	diamEstimate int

	// Per-level scratch reused across constructLevel iterations and resets
	// (see resetLevelState): temp/lg always point at tempScratch/lgScratch
	// when set; idsScratch carries the previous level's node IDs; redScratch
	// backs appendPathRedEdges in updateVHT. All are valid only within the
	// level that filled them.
	tempScratch tempVHT
	lgScratch   levelGraph
	idsScratch  []int
	redScratch  []obs

	// claimed reports whether this process's input claim was accepted while
	// constructing level 0 (Generalized Counting / leaderless modes).
	claimed bool

	// snapshots[l] holds the agreed state at the begin of the construction
	// of level l, used by resets to restore it ("reverts its ID to the one
	// it had at the beginning of the construction of that level", Section
	// 3.7). Restoring NextFreshID the same way is required for Corollary
	// 4.3's agreement to survive resets; the brief announcement's
	// pseudocode leaves this implicit. The observation list and journal
	// length are used by the fine-grained reset of the "Optimized running
	// time" refinement.
	snapshots map[int]snapshot

	// journal is the ordered log of accepted messages (Edge, Done, Input),
	// agreed among non-error processes. Fine-grained resets rewind to a
	// journal index and replay; it stays empty in every other run.
	journal []journalEntry

	// resumeMidLevel is set by a fine-grained reset that rewound into the
	// middle of a level: the next constructLevel call must skip the level
	// setup (the begin-round state was restored from the snapshot).
	resumeMidLevel bool

	// pending is the leader's resolved-but-unconfirmed count (see
	// confirmation window discussion in mainLoop). Nil for non-leaders and
	// while unresolved.
	pending *pendingOutput

	// solver is the persistent incremental counting solver, kept across
	// constructLevel iterations so each level's balance equations are
	// eliminated exactly once; it watches the VHT's truncation generation
	// and rebuilds itself after resets.
	solver *historytree.Solver
}

// pendingOutput is a resolved count waiting out its confirmation window.
type pendingOutput struct {
	res           historytree.CountResult
	levels        int // VHT levels completed at resolution
	resolvedRound int // virtual round of resolution
	diamEstimate  int
}

// obs is one ObsList element: the pair (ID2, Mult) of Listing 4.
type obs struct {
	id2  int
	mult int
}

// txBox is one entry of the boxed-message ring cache (see boxFor).
type txBox struct {
	m   wire.Message
	box *wire.Message
}

type snapshot struct {
	myID        int
	nextFreshID int
	journalLen  int
	claimed     bool
	obsList     []obs // kept only under FineGrainedReset, which reads it
}

// journalEntry is one accepted message together with the level it was
// accepted for.
type journalEntry struct {
	msg   wire.Message
	level int
}

var _ engine.Coroutine = (*Process)(nil)

// NewProcess returns a protocol participant with the given input. The
// configuration must have been validated against the full input assignment
// via Config.Validate.
func NewProcess(cfg Config, input historytree.Input) *Process {
	return &Process{cfg: cfg, input: input, rec: cfg.Recorder}
}

// haltedError unwinds a process that learned n from a Halt message
// (Section 5 simultaneous termination). It is converted into a normal
// Outcome by Run.
type haltedError struct {
	n     int
	round int
}

func (e *haltedError) Error() string {
	return fmt.Sprintf("core: halted with n=%d at round %d", e.n, e.round)
}

// Run implements engine.Coroutine.
func (p *Process) Run(tr *engine.Transport) (any, error) { return p.runOn(tr) }

// runOn runs the protocol over tr and turns a Halt unwind into an Outcome.
func (p *Process) runOn(tr transport) (any, error) {
	out, err := p.run(tr)
	var h *haltedError
	if errors.As(err, &h) {
		return &Outcome{
			N:                 h.n,
			Levels:            p.currentLevel,
			FinalDiamEstimate: p.diamEstimate,
			FinalRound:        h.round,
			Solver:            p.solverStats(),
		}, nil
	}
	return out, err
}

func (p *Process) run(tr transport) (any, error) {
	if t := p.cfg.blockT(); t > 1 {
		tr = &blockTransport{inner: tr, t: t}
	}
	p.tr = tr
	p.initialize()
	if p.cfg.Mode == ModeLeaderless {
		return p.mainLoopLeaderless()
	}
	return p.mainLoop()
}

// initialize is InitializeVariables (Listing 1).
func (p *Process) initialize() {
	p.myID = 1
	if p.input.Leader {
		p.myID = 0
	}
	p.initialID = p.myID
	p.nextFreshID = 2
	p.solver = historytree.NewSolver()
	p.snapshots = make(map[int]snapshot)
	p.diamEstimate = 1
	if p.cfg.Mode == ModeLeaderless {
		p.diamEstimate = p.cfg.DiamBound
	}
	if p.group != nil {
		// Shared mode: the group pre-built the initial tree (including the
		// basic-mode level-0 partition below).
		p.vht = p.group.tree
	} else {
		p.vht = historytree.New()
	}
	if p.cfg.buildsInputLevel() {
		// Level 0 is constructed from inputs (Section 5); the VHT starts
		// with the root only and the initial IDs 0/1 are placeholders.
		p.currentLevel = 0
		return
	}
	// Basic mode: level 0 is the pre-agreed {leader, non-leader} partition.
	if p.group == nil {
		if _, err := p.vht.AddChild(0, p.vht.Root(), historytree.Input{Leader: true}); err != nil {
			panic(err) // fresh tree; cannot fail
		}
		if _, err := p.vht.AddChild(1, p.vht.Root(), historytree.Input{}); err != nil {
			panic(err)
		}
	}
	p.currentLevel = 1
}

// mainLoop is Main (Listing 2) for leader mode. Non-leader processes loop
// until cancelled by the engine (basic mode) or halted (SimultaneousHalt).
//
// Confirmation window. The paper's CountFromView black box (FOCS 2022) is
// never wrong even on views with classes missing; this reproduction's
// solver instead assumes complete levels, which can be violated when a
// process enters an error phase during the very level the leader resolves
// on — before its Error message has had time to travel. The window closes
// that gap: a resolved count n̂ is withheld for n̂ further (virtual) rounds
// while construction continues. Error messages outrank everything and
// spread to at least one new process per round in a connected network, so
// any error born before resolution reaches the leader within n-1 < n̂+1
// rounds (whenever n̂ ≥ n-1), voiding the resolution via the normal reset
// path; the level is then rebuilt with the erring processes included and
// recounted. See DESIGN.md §5 for the residual-fidelity discussion.
func (p *Process) mainLoop() (any, error) {
	for {
		if p.cfg.MaxLevels > 0 && p.currentLevel > p.cfg.MaxLevels {
			return nil, fmt.Errorf("core: VHT exceeded %d levels without terminating", p.cfg.MaxLevels)
		}
		ctl, err := p.constructLevel()
		if err != nil {
			return nil, err
		}
		switch ctl {
		case levelRestart:
			// "goto Line 7": an error voided the in-flight work, and any
			// pending resolution with it (the reset may rewind levels the
			// count depended on; a fresh resolution follows the rebuild).
			p.pending = nil
			continue
		case levelOutput:
			return p.emitPending()
		}
		p.rec.noteLevelDone(p.currentLevel, p.tr.PID(), p.myID)
		if p.input.Leader && p.pending == nil {
			res, err := p.countNow()
			if err != nil {
				return nil, err
			}
			if res.Known && vhtComplete(p.vht, p.currentLevel) {
				p.pending = &pendingOutput{
					res:           res,
					levels:        p.currentLevel,
					resolvedRound: p.tr.Round(),
					diamEstimate:  p.diamEstimate,
				}
				if p.cfg.eager {
					return p.emitPending()
				}
			}
		}
		if p.outputDue() {
			return p.emitPending()
		}
		p.currentLevel++
	}
}

// outputDue reports whether the pending count has survived its
// confirmation window.
func (p *Process) outputDue() bool {
	return p.pending != nil && p.tr.Round() >= p.pending.resolvedRound+p.pending.res.N
}

// emitPending turns the confirmed pending count into the process output
// (or the Halt broadcast under SimultaneousHalt).
func (p *Process) emitPending() (any, error) {
	pd := p.pending
	if p.cfg.SimultaneousHalt {
		return nil, p.initiateHalt(pd.res.N)
	}
	return &Outcome{
		N:                 pd.res.N,
		Multiset:          pd.res.Multiset,
		VHT:               p.vht,
		Levels:            pd.levels,
		FinalDiamEstimate: pd.diamEstimate,
		FinalRound:        p.tr.Round(),
		Solver:            p.solverStats(),
	}, nil
}

// countNow evaluates the persistent incremental Solver after a completed
// level.
func (p *Process) countNow() (historytree.CountResult, error) {
	return p.solver.CountAt(p.vht, p.currentLevel)
}

// frequenciesNow is countNow's leaderless counterpart.
func (p *Process) frequenciesNow() (historytree.FrequencyResult, error) {
	return p.solver.FrequenciesAt(p.vht, p.currentLevel)
}

// solverStats returns the counting work this process has done.
func (p *Process) solverStats() historytree.SolverStats {
	if p.solver == nil {
		return historytree.SolverStats{}
	}
	return p.solver.Stats()
}

// vhtComplete performs the structural completeness check: every node of a
// level ≥ 1 was created by an accepted Done message, so it represents at
// least one live process — in a genuine history tree that class persists
// to every deeper level. A childless interior node therefore proves its
// processes vanished into an error phase and the count cannot be trusted
// yet. (A childless level-0 node is legitimate: the pre-agreed non-leader
// class of Listing 1 is empty when n = 1.)
func vhtComplete(t *historytree.Tree, levels int) bool {
	for l := 1; l < levels; l++ {
		for _, v := range t.Level(l) {
			if len(v.Children) == 0 {
				return false
			}
		}
	}
	return true
}

// vhtHasNode reports whether the process's tree has a node with the given
// ID.
func (p *Process) vhtHasNode(id int) bool {
	return p.vht.NodeByID(id) != nil
}

// mainLoopLeaderless is the Section 5 leaderless algorithm: reliable
// D-round broadcasts, no acknowledgments or resets; every process holds the
// same VHT and evaluates the frequency solver locally after each level, so
// all terminate simultaneously.
func (p *Process) mainLoopLeaderless() (any, error) {
	for {
		if p.cfg.MaxLevels > 0 && p.currentLevel > p.cfg.MaxLevels {
			return nil, fmt.Errorf("core: VHT exceeded %d levels without terminating", p.cfg.MaxLevels)
		}
		ctl, err := p.constructLevel()
		if err != nil {
			return nil, err
		}
		if ctl != levelDone {
			return nil, fmt.Errorf("core: leaderless run requested a restart (diameter bound %d too small?)",
				p.cfg.DiamBound)
		}
		p.rec.noteLevelDone(p.currentLevel, p.tr.PID(), p.myID)
		freq, err := p.frequenciesNow()
		if err != nil {
			return nil, err
		}
		if freq.Known {
			return &Outcome{
				Frequencies:       &freq,
				VHT:               p.vht,
				Levels:            p.currentLevel,
				FinalDiamEstimate: p.diamEstimate,
				FinalRound:        p.tr.Round(),
				Solver:            p.solverStats(),
			}, nil
		}
		p.currentLevel++
	}
}

// levelControl is the outcome of constructLevel.
type levelControl int

const (
	// levelDone: the level completed normally (End accepted).
	levelDone levelControl = iota + 1
	// levelRestart: an error or reset interrupted the work; re-enter at
	// the (possibly reset) current level.
	levelRestart
	// levelOutput: the leader's pending count survived its confirmation
	// window mid-level; emit it.
	levelOutput
)

// constructLevel builds one VHT level: the body of the main loop of
// Listing 2 (level setup, then repeated VHT + acknowledgment broadcasts
// until a Level-end message is accepted).
func (p *Process) constructLevel() (levelControl, error) {
	inputLevel := p.cfg.buildsInputLevel() && p.currentLevel == 0
	switch {
	case p.resumeMidLevel:
		// A fine-grained reset restored the mid-level state; skip setup.
		p.resumeMidLevel = false
	case inputLevel:
		p.snapshots[0] = snapshot{
			myID:        p.myID,
			nextFreshID: p.nextFreshID,
			journalLen:  len(p.journal),
			claimed:     p.claimed,
		}
	default:
		// Listing 2 lines 7–9: redo the level setup after an error. The
		// restart is reported to the main loop, which re-enters at the
		// (possibly reset) current level, re-dispatching on its kind.
		r, err := p.setUpNewLevel()
		if err != nil {
			return levelDone, err
		}
		if r {
			return levelRestart, nil
		}
	}

	for {
		if p.outputDue() {
			return levelOutput, nil
		}
		var orig wire.Message
		if p.cfg.buildsInputLevel() && p.currentLevel == 0 {
			orig = p.makeInputMessage()
		} else {
			orig = p.makeVHTMessage()
		}
		accepted, restart, err := p.acceptedMessage(orig)
		if err != nil {
			return levelDone, err
		}
		if restart {
			return levelRestart, nil
		}
		// Under fine-grained resets every acceptance is journaled —
		// including the Level-end message. Journaling the End is what
		// makes reset indices unambiguous at level boundaries: "rewind to
		// index i" must mean the same state (End pending vs. next level
		// begun) to every process, or processes that missed the End
		// acceptance desync. Nothing else reads the journal, so other
		// runs keep none.
		if p.cfg.FineGrainedReset {
			p.journal = append(p.journal, journalEntry{msg: accepted, level: p.currentLevel})
		}
		if accepted.Label == wire.LabelEnd {
			return levelDone, nil
		}
		if err := p.applyAccepted(accepted, true); err != nil {
			return levelDone, err
		}
	}
}

// applyAccepted applies an accepted Edge, Done, or Input message to the
// process state. It is shared by the live path (record=true) and by the
// journal replay of fine-grained resets (record=false). Under sharing, the
// whole message runs without another member's interleaving (see share.go).
func (p *Process) applyAccepted(accepted wire.Message, record bool) error {
	switch accepted.Label {
	case wire.LabelEdge, wire.LabelEdgeBatch:
		if record && p.recordPrimary() {
			p.rec.noteAccepted(acceptEdge)
		}
		if err := p.updateTempVHT(int(accepted.A), int(accepted.B), int(accepted.C)); err != nil {
			return err
		}
		// Batched follow-up pairs (Section 6 tradeoff) chain onto the
		// temporary node each preceding pair created; its fresh ID is
		// agreed by all processes, so the chain is unambiguous.
		pairs, err := accepted.ExtPairs()
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			chainID := p.nextFreshID - 1
			if err := p.updateTempVHT(chainID, int(pr.ID2), int(pr.Mult)); err != nil {
				return err
			}
		}
		return nil
	case wire.LabelDone:
		if record && p.recordPrimary() {
			p.rec.noteAccepted(acceptDone)
		}
		return p.updateVHT(int(accepted.A))
	case wire.LabelInput:
		if record && p.recordPrimary() {
			p.rec.noteAccepted(acceptInput)
		}
		return p.acceptInput(accepted)
	default:
		return fmt.Errorf("core: unexpected accepted message %s", accepted)
	}
}

// acceptedMessage performs the VHT broadcast phase and, in leader mode, the
// acknowledgment phase (Listing 2 lines 10–23). It returns the accepted
// message, or restart=true when an error or reset interrupted the exchange.
func (p *Process) acceptedMessage(orig wire.Message) (wire.Message, bool, error) {
	vhtMsg, restart, err := p.broadcastPhase(orig)
	if err != nil || restart {
		return vhtMsg, restart, err
	}
	if p.cfg.Mode == ModeLeaderless {
		// Reliable broadcast: the result is the accepted message.
		return vhtMsg, false, nil
	}
	var ack wire.Message
	if p.input.Leader {
		ack, restart, err = p.broadcastPhase(vhtMsg)
	} else {
		ack, restart, err = p.broadcastPhase(wire.Null())
	}
	if err != nil || restart {
		return ack, restart, err
	}
	if ack != vhtMsg {
		// Faulty broadcast detected (Listing 2 lines 21–23).
		if err := p.enterErrorPhase(p.detectTarget()); err != nil {
			return ack, false, err
		}
		return ack, true, nil
	}
	return ack, false, nil
}

// initiateHalt implements the Section 5 simultaneous-termination protocol
// from the leader's side: broadcast Halt(n, c) and keep forwarding until
// round c+n, then halt.
func (p *Process) initiateHalt(n int) error {
	return p.haltForward(wire.Halt(int64(n), int64(p.tr.Round())))
}

// haltForward forwards a received (or just created) Halt message until
// round c+n and then unwinds with a haltedError carrying the result.
func (p *Process) haltForward(m wire.Message) error {
	final := int(m.A + m.B) // n + starting round
	for p.tr.Round() < final {
		if _, err := p.sendAndReceive(m); err != nil {
			return err
		}
	}
	return &haltedError{n: int(m.A), round: p.tr.Round()}
}

// sortMessages orders a received multiset canonically (by label band then
// parameters) so iteration order never depends on engine delivery order.
// slices.SortFunc rather than sort.Slice: the generic sort swaps directly
// instead of building a reflect-based swapper, which matters (and saves an
// allocation) on a per-round sort of a dozen messages.
func sortMessages(msgs []wire.Message) {
	slices.SortFunc(msgs, func(a, b wire.Message) int {
		if a.Label != b.Label {
			return int(a.Label) - int(b.Label)
		}
		if a.A != b.A {
			return cmp.Compare(a.A, b.A)
		}
		if a.B != b.B {
			return cmp.Compare(a.B, b.B)
		}
		return cmp.Compare(a.C, b.C)
	})
}
