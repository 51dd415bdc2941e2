package core

import (
	"fmt"
	"math"

	"anondyn/internal/wire"
)

// broadcastPhase is BroadcastPhase (Listing 3 lines 28–38): DiamEstimate
// broadcast steps, relayed by the engine (see relay), then dispatch on the
// surviving message. Error and Reset results are handled and reported as
// restart=true.
func (p *Process) broadcastPhase(m wire.Message) (wire.Message, bool, error) {
	top, err := p.relay(m, p.diamEstimate, false)
	if err != nil {
		return top, false, err
	}
	switch top.Label {
	case wire.LabelError:
		if err := p.handleError(top); err != nil {
			return top, false, err
		}
		return top, true, nil
	case wire.LabelReset:
		if err := p.broadcastReset(top); err != nil {
			return top, false, err
		}
		return top, true, nil
	default:
		return top, false, nil
	}
}

// detectTarget is the rollback point a locally detected fault refers to:
// the current level in the basic algorithm, or the number of accepted
// messages so far under the fine-grained refinement ("the number of
// messages that the leader has accepted up to that time", Section 5).
func (p *Process) detectTarget() int {
	if p.cfg.FineGrainedReset {
		return len(p.journal)
	}
	return p.currentLevel
}

// handleError is HandleError (Listing 6 lines 9–19): adopt a deeper error's
// target, then either initiate a reset (leader) or enter an error phase.
func (p *Process) handleError(m wire.Message) error {
	target := p.detectTarget()
	if m.Label == wire.LabelError && int(m.A) < target {
		target = int(m.A)
	}
	return p.enterErrorPhase(target)
}

// enterErrorPhase routes a detected fault: the leader waits out all ongoing
// phases and initiates a reset; a non-leader broadcasts Error messages
// until a reset reaches it.
func (p *Process) enterErrorPhase(target int) error {
	if p.input.Leader {
		return p.leaderReset(target)
	}
	return p.broadcastError(target)
}

// leaderReset is the leader branch of HandleError (Listing 6 lines 12–18):
// wait 2·DiamEstimate+1 rounds sending Null so every non-error process
// finishes its phases and notices the fault, then broadcast a Reset for the
// target with a doubled diameter estimate.
func (p *Process) leaderReset(target int) error {
	for i := 0; i <= 2*p.diamEstimate; i++ {
		if _, err := p.sendAndReceive(wire.Null()); err != nil {
			return err
		}
	}
	reset := wire.Reset(int64(target), int64(p.tr.Round()), int64(p.diamEstimate*2))
	p.rec.noteReset(int(reset.C))
	return p.broadcastReset(reset)
}

// broadcastError is BroadcastError (Listing 6 lines 21–27): broadcast an
// Error message (letting higher-priority messages replace it) until a Reset
// message arrives, then join that reset. The target is a level in the basic
// algorithm and a journal index under fine-grained resets.
func (p *Process) broadcastError(target int) error {
	reset, err := p.relay(wire.Error(int64(target)), math.MaxInt, true)
	if err != nil {
		return err
	}
	return p.broadcastReset(reset)
}

// broadcastReset is BroadcastReset (Listing 6 lines 29–41): forward the
// reset until the globally agreed final round StartingRound+NewDiam, then
// perform the rollback.
func (p *Process) broadcastReset(m wire.Message) error {
	if _, err := p.relay(m, int(m.B+m.C)-p.tr.Round(), false); err != nil {
		return err
	}
	return p.performReset(int(m.A), int(m.C))
}

// performReset dispatches the rollback: by level (basic algorithm) or by
// journal index (fine-grained refinement).
func (p *Process) performReset(target, newDiam int) error {
	if p.cfg.FineGrainedReset {
		return p.performFineReset(target, newDiam)
	}
	return p.performLevelReset(target, newDiam)
}

// performLevelReset rolls back to the beginning of the construction of
// level resetLevel: restore MyID and NextFreshID to their values at that
// level's begin, delete the undone VHT levels, and adopt the new diameter
// estimate (Listing 6 lines 34–41).
func (p *Process) performLevelReset(resetLevel, newDiam int) error {
	snap, ok := p.snapshots[resetLevel]
	if !ok {
		return fmt.Errorf("core: reset to level %d, which this process never started", resetLevel)
	}
	if g := p.group; g != nil {
		// Joint truncation of the shared tree (first arrival truncates,
		// later members resynchronize their log cursors). A fork inside
		// clears p.group; the private path below then finishes the job.
		if err := g.truncate(p, resetLevel, newDiam, p.tr.Round(), snap.nextFreshID); err != nil {
			return err
		}
	} else if g := p.forkedFrom; g != nil {
		// A forked member rejoins here if the group performs the same reset:
		// the rollback target is the agreed begin-of-level snapshot, where
		// private and shared state coincide again.
		g.rejoin(p, resetLevel, newDiam, p.tr.Round(), snap.nextFreshID)
	}
	if p.group == nil {
		p.vht.TruncateLevels(resetLevel)
	}
	p.myID = snap.myID
	p.nextFreshID = snap.nextFreshID
	for l := range p.snapshots {
		if l > resetLevel {
			delete(p.snapshots, l)
		}
	}
	if resetLevel == 0 {
		p.claimed = false
	}
	p.currentLevel = resetLevel
	p.diamEstimate = newDiam
	p.temp = nil
	p.lg = nil
	p.obsList = nil
	return nil
}

// performFineReset rolls back to journal index `index` (Section 5,
// "Optimized running time"): truncate the journal, restore the begin-round
// snapshot of the level the index falls in, replay the surviving entries of
// that level, and resume mid-level — without redoing the begin round.
func (p *Process) performFineReset(index, newDiam int) error {
	if index > len(p.journal) {
		return fmt.Errorf("core: reset to journal index %d beyond local count %d", index, len(p.journal))
	}
	p.journal = p.journal[:index]

	// The target level is the deepest one whose construction began at or
	// before the index.
	level, found := -1, false
	for l, snap := range p.snapshots {
		if snap.journalLen <= index && l > level {
			level, found = l, true
		}
	}
	if !found {
		return fmt.Errorf("core: no snapshot covers journal index %d", index)
	}
	snap := p.snapshots[level]
	p.myID = snap.myID
	p.nextFreshID = snap.nextFreshID
	p.claimed = snap.claimed
	p.obsList = append([]obs(nil), snap.obsList...)
	p.vht.TruncateLevels(level)
	for l := range p.snapshots {
		if l > level {
			delete(p.snapshots, l)
		}
	}
	p.currentLevel = level
	p.diamEstimate = newDiam

	// Rebuild the per-level working state and replay the surviving
	// accepted messages of this level (all entries past the snapshot are
	// of this level, since deeper levels' snapshots exceed the index).
	p.temp = nil
	p.lg = nil
	if !(p.cfg.buildsInputLevel() && level == 0) {
		if err := p.resetLevelState(level); err != nil {
			return err
		}
	}
	for _, e := range p.journal[snap.journalLen:] {
		if e.level != level {
			return fmt.Errorf("core: journal entry at level %d inside level-%d replay", e.level, level)
		}
		if e.msg.Label == wire.LabelEnd {
			// Unreachable: an End inside the replay range implies the next
			// level's snapshot exists with journalLen ≤ index (the begin
			// snapshot is stored even when the begin round sees an error),
			// contradicting the maximality of `level`.
			return fmt.Errorf("core: level-end entry inside level-%d replay", level)
		}
		if err := p.applyAccepted(e.msg, false); err != nil {
			return fmt.Errorf("core: replay: %w", err)
		}
	}
	p.resumeMidLevel = true
	return nil
}
