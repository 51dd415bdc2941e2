package core

import (
	"fmt"

	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// setUpNewLevel is SetUpNewLevel (Listing 4 lines 1–19): exchange Begin
// messages carrying IDs, record the observed (ID, multiplicity) pairs in
// ObsList, and reinitialize the temporary VHT and level graph from the
// previous VHT level. It returns restart=true when a foreign (non-Begin)
// message revealed an error.
func (p *Process) setUpNewLevel() (restart bool, err error) {
	snap := snapshot{
		myID:        p.myID,
		nextFreshID: p.nextFreshID,
		journalLen:  len(p.journal),
		claimed:     p.claimed,
	}
	msgs, err := p.sendAndReceive(wire.Begin(int64(p.myID)))
	if err != nil {
		return false, err
	}
	sortMessages(msgs)

	// Derive the observation list from the Begin messages received — even
	// when a foreign message is present, so that a later fine-grained reset
	// can resume this level from the snapshot ("by looking up the Begin
	// messages received in the appropriate begin round, each process is
	// also able to reconstruct its local ObsList", Section 5). Identical
	// Begins group into (ID, multiplicity) pairs; our own ID is discarded
	// and replaced by the cycle pair (MyID, 2). The messages are sorted, so
	// equal Begins form contiguous runs and run-length encoding replaces
	// the seed's per-round counting map: pairs still come out in ascending
	// ID order, exactly as before.
	p.obsList = p.obsList[:0]
	for i := 0; i < len(msgs); {
		if msgs[i].Label != wire.LabelBegin {
			i++
			continue
		}
		id := int(msgs[i].A)
		c := 1
		for i+c < len(msgs) && msgs[i+c].Label == wire.LabelBegin && int(msgs[i+c].A) == id {
			c++
		}
		if id != p.myID {
			p.obsList = append(p.obsList, obs{id2: id, mult: c})
		}
		i += c
	}
	p.obsList = append(p.obsList, obs{id2: p.myID, mult: 2})
	if p.cfg.FineGrainedReset {
		// Only a fine-grained reset resumes a level mid-way and reads it.
		snap.obsList = append([]obs(nil), p.obsList...)
	}
	p.snapshots[p.currentLevel] = snap

	if err := p.resetLevelState(p.currentLevel); err != nil {
		return false, err
	}

	// React to foreign messages last: a process in an error or reset phase
	// may have injected one; respond to the highest-priority intruder.
	var intruder wire.Message
	haveIntruder := false
	for _, m := range msgs {
		if m.Label == wire.LabelBegin {
			continue
		}
		if m.Label == wire.LabelHalt {
			return false, p.haltForward(m)
		}
		if !haveIntruder || Higher(m, intruder) {
			intruder, haveIntruder = m, true
		}
	}
	if haveIntruder {
		if err := p.handleError(intruder); err != nil {
			return false, err
		}
		return true, nil
	}
	if p.recordPrimary() {
		p.rec.noteBeginRound(p.tr.Round())
	}
	return false, nil
}

// makeVHTMessage is MakeVHTMessage (Listing 4 lines 21–35), extended with
// the Section 6 batching tradeoff: with BatchSize ≥ 2, up to BatchSize
// ObsList entries ride in a single Edge message; the follow-up entries
// implicitly chain onto the fresh temporary nodes the leading ones create.
func (p *Process) makeVHTMessage() wire.Message {
	if len(p.obsList) == 0 {
		if p.vhtHasNode(p.myID) {
			return wire.End()
		}
		return wire.Done(int64(p.myID))
	}
	k := p.cfg.BatchSize
	if k < 2 {
		o := p.obsList[0]
		return wire.Edge(int64(p.myID), int64(o.id2), int64(o.mult))
	}
	if k > len(p.obsList) {
		k = len(p.obsList)
	}
	pairs := make([]wire.EdgePair, k)
	for i, o := range p.obsList[:k] {
		pairs[i] = wire.EdgePair{ID2: int64(o.id2), Mult: int64(o.mult)}
	}
	m, err := wire.EdgeBatch(int64(p.myID), pairs)
	if err != nil {
		// Unreachable: pairs is non-empty by construction.
		return wire.Edge(int64(p.myID), int64(p.obsList[0].id2), int64(p.obsList[0].mult))
	}
	return m
}

// makeInputMessage is the level-0 analogue for Generalized Counting
// (Section 5): claim the process's input until the claim is accepted, then
// signal completion.
func (p *Process) makeInputMessage() wire.Message {
	if p.claimed {
		return wire.End()
	}
	return wire.Input(int64(p.myID), p.input.Value, p.input.Leader)
}

// acceptInput applies an accepted Input message: create the level-0 node
// for the claimed input class and, if this process made a matching claim,
// adopt the fresh ID. Under sharing the node is created once per group;
// every member still advances its fresh-ID counter and checks its own
// claim (the new node's ID is the pre-increment counter by construction).
func (p *Process) acceptInput(m wire.Message) error {
	in := historytree.Input{Leader: m.C == 1, Value: m.B}
	mutate, err := p.opGate(opInput, m.A, m.B, m.C)
	if err != nil {
		return err
	}
	if mutate {
		for _, v := range p.vht.Level(0) {
			if v.Input == in {
				return fmt.Errorf("core: input class %s accepted twice", in)
			}
		}
		if _, err := p.vht.AddChild(p.nextFreshID, p.vht.Root(), in); err != nil {
			return err
		}
	}
	newID := p.nextFreshID
	p.nextFreshID++
	if !p.claimed && p.myID == int(m.A) && p.input == in {
		p.myID = newID
		p.claimed = true
	}
	return nil
}

// updateTempVHT is UpdateTempVHT (Listing 5 lines 17–33): apply an accepted
// red-edge triplet (id1, id2, mult) to the temporary VHT, adopt the fresh
// ID if this process contributed the observation, extend the level graph,
// and prune observations that would close cycles.
func (p *Process) updateTempVHT(id1, id2, mult int) error {
	mutate, err := p.opGate(opTemp, int64(id1), int64(id2), int64(mult))
	if err != nil {
		return err
	}
	if mutate {
		root1 := p.temp.root(id1)
		root2 := p.temp.root(id2)
		if root1 == nil || root2 == nil {
			return fmt.Errorf("core: accepted edge (%d,%d,%d) references unknown temp nodes", id1, id2, mult)
		}
		if _, err := p.temp.addChild(p.nextFreshID, id1, root2.id, mult); err != nil {
			return err
		}
		if !p.cfg.keepAllLinks() && root1.id != root2.id && !p.lg.hasEdge(root1.id, root2.id) {
			if err := p.lg.addEdge(root1.id, root2.id); err != nil {
				return err
			}
		}
	}
	// The per-member bookkeeping below runs on the verify path too: the
	// fresh child's ID is the pre-increment counter by construction, so
	// adoption needs no lookup into the (already-updated) shared forest.
	childID := p.nextFreshID
	p.nextFreshID++
	if p.myID == id1 {
		if i := p.obsIndex(id2, mult); i >= 0 {
			p.obsList = append(p.obsList[:i], p.obsList[i+1:]...)
			p.myID = childID
		}
	}
	if p.cfg.keepAllLinks() {
		// Ablation / batching mode: the virtual network keeps every link
		// of the selected round, so no level-graph bookkeeping happens and
		// no observation is ever pruned (the VHT loses the Lemma 4.6
		// amortization but remains a valid history tree).
		return nil
	}
	p.preventCycles()
	return nil
}

// preventCycles is PreventCyclesInLevelGraph (Listing 5 lines 7–15): drop
// from ObsList every pair whose acceptance would close a cycle in the level
// graph. Pairs within the process's own class (the C_v cycle) and pairs
// whose class edge already exists are kept.
func (p *Process) preventCycles() {
	root := p.temp.root(p.myID)
	if root == nil {
		return
	}
	kept := p.obsList[:0]
	for _, o := range p.obsList {
		if o.id2 == root.id || p.lg.hasEdge(root.id, o.id2) || !p.lg.connected(root.id, o.id2) {
			kept = append(kept, o)
		}
	}
	p.obsList = kept
}

// updateVHT is UpdateVHT (Listing 5 lines 35–48): promote the temporary
// node with the accepted Done ID into the VHT, attaching it under the VHT
// node of its temp root and giving it all red edges along its temp path.
func (p *Process) updateVHT(id int) error {
	mutate, err := p.opGate(opDone, int64(id), 0, 0)
	if err != nil {
		return err
	}
	if !mutate {
		return nil
	}
	tempRoot := p.temp.root(id)
	if tempRoot == nil {
		return fmt.Errorf("core: accepted Done(%d) references unknown temp node", id)
	}
	parent := p.vht.NodeByID(tempRoot.id)
	if parent == nil {
		return fmt.Errorf("core: temp root %d has no VHT counterpart", tempRoot.id)
	}
	child, err := p.vht.AddChild(id, parent, historytree.Input{})
	if err != nil {
		return err
	}
	// The path's red edges come back merged and sorted by source ID in a
	// reused scratch slice, replacing the seed's per-call map plus
	// insertion-sorted key slice; AddRed order (ascending source) is
	// unchanged.
	reds, err := p.temp.appendPathRedEdges(id, p.redScratch[:0])
	p.redScratch = reds[:0]
	if err != nil {
		return err
	}
	for _, o := range reds {
		srcNode := p.vht.NodeByID(o.id2)
		if srcNode == nil {
			return fmt.Errorf("core: red edge source %d missing from VHT", o.id2)
		}
		if err := p.vht.AddRed(child, srcNode, o.mult); err != nil {
			return err
		}
	}
	return nil
}

// obsIndex returns the index of the pair (id2, mult) in ObsList, or -1.
func (p *Process) obsIndex(id2, mult int) int {
	for i, o := range p.obsList {
		if o.id2 == id2 && o.mult == mult {
			return i
		}
	}
	return -1
}

// recordPrimary reports whether this process is the designated recording
// process (the leader, or process 0 in leaderless mode), so that global
// counters are recorded exactly once.
func (p *Process) recordPrimary() bool {
	if p.cfg.Mode == ModeLeaderless {
		return p.tr.PID() == 0
	}
	return p.input.Leader
}

// resetLevelState (re)initializes the temporary VHT and level graph on the
// node IDs of level-1 below `level`, reusing the process-owned scratch
// structures across levels and resets. Under sharing the rebuild happens
// once per group (first arrival); every member then points its temp and lg
// at the shared structures.
func (p *Process) resetLevelState(level int) error {
	mutate, err := p.opGate(opSetup, int64(level), 0, 0)
	if err != nil {
		return err
	}
	if g := p.group; g != nil {
		if mutate {
			g.ids = g.ids[:0]
			for _, v := range p.vht.Level(level - 1) {
				g.ids = append(g.ids, v.ID)
			}
			g.temp.reset(g.ids)
			g.lg.reset(g.ids)
		}
		p.temp = &g.temp
		p.lg = &g.lg
		return nil
	}
	prev := p.vht.Level(level - 1)
	p.idsScratch = p.idsScratch[:0]
	for _, v := range prev {
		p.idsScratch = append(p.idsScratch, v.ID)
	}
	p.tempScratch.reset(p.idsScratch)
	p.lgScratch.reset(p.idsScratch)
	p.temp = &p.tempScratch
	p.lg = &p.lgScratch
	return nil
}
