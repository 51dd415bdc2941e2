package core

import (
	"errors"
	"slices"
	"testing"

	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// fakeTransport scripts the deliveries a process observes, round by round,
// so phase functions can be unit-tested in isolation from the engine.
type fakeTransport struct {
	t         *testing.T
	round     int
	replies   [][]wire.Message // replies[i] delivered at round i+1
	sentLog   []wire.Message
	exhausted error // returned once the script runs out (default: stop)
}

var _ transport = (*fakeTransport)(nil)

func newFakeTransport(t *testing.T, replies ...[]wire.Message) *fakeTransport {
	return &fakeTransport{t: t, replies: replies, exhausted: engine.ErrStopped}
}

func (f *fakeTransport) SendAndReceive(m engine.Message) ([]engine.Message, error) {
	wm, ok := wire.FromBox(m)
	if !ok {
		f.t.Fatalf("fake transport got %T", m)
	}
	f.sentLog = append(f.sentLog, wm)
	if f.round >= len(f.replies) {
		return nil, f.exhausted
	}
	out := make([]engine.Message, len(f.replies[f.round]))
	for i := range f.replies[f.round] {
		out[i] = &f.replies[f.round][i]
	}
	f.round++
	return out, nil
}

func (f *fakeTransport) Relay(m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error) {
	return stepRelay(f.SendAndReceive, m, steps, hold, wake)
}

func (f *fakeTransport) Round() int { return f.round }
func (f *fakeTransport) PID() int   { return 0 }

// newUnitProcess returns a non-leader process wired to the fake transport,
// initialized for basic mode at level 1.
func newUnitProcess(t *testing.T, tr transport, leader bool) *Process {
	return newUnitProcessWith(tr, Config{Mode: ModeLeader}, leader)
}

// newUnitProcessWith is newUnitProcess under cfg.
func newUnitProcessWith(tr transport, cfg Config, leader bool) *Process {
	p := NewProcess(cfg, historytree.Input{Leader: leader})
	p.tr = tr
	p.initialize()
	return p
}

// A one-step relay is Listing 3's BroadcastStep.

func TestBroadcastStepKeepsHighestPriority(t *testing.T) {
	tr := newFakeTransport(t,
		[]wire.Message{wire.Null(), wire.Done(4), wire.Edge(1, 2, 3)},
	)
	p := newUnitProcess(t, tr, false)
	top, err := p.relay(wire.Done(9), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if top != wire.Edge(1, 2, 3) {
		t.Fatalf("top = %s, want the edge", top)
	}
}

func TestBroadcastStepKeepsOwnOnLowerPriorityTraffic(t *testing.T) {
	tr := newFakeTransport(t, []wire.Message{wire.Null(), wire.Begin(7)})
	p := newUnitProcess(t, tr, false)
	top, err := p.relay(wire.Done(2), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if top != wire.Done(2) {
		t.Fatalf("top = %s, want own Done", top)
	}
}

func TestBroadcastPhaseRunsDiamEstimateSteps(t *testing.T) {
	tr := newFakeTransport(t,
		[]wire.Message{wire.Null()},
		[]wire.Message{wire.Edge(3, 4, 1)},
		[]wire.Message{wire.Null()},
	)
	p := newUnitProcess(t, tr, false)
	p.diamEstimate = 3
	top, restart, err := p.broadcastPhase(wire.End())
	if err != nil || restart {
		t.Fatalf("restart=%v err=%v", restart, err)
	}
	if top != wire.Edge(3, 4, 1) {
		t.Fatalf("top = %s", top)
	}
	if len(tr.sentLog) != 3 {
		t.Fatalf("sent %d messages, want DiamEstimate=3", len(tr.sentLog))
	}
	// The adopted edge must be forwarded in the step after its arrival.
	if tr.sentLog[2] != wire.Edge(3, 4, 1) {
		t.Fatalf("step 3 sent %s, want the adopted edge", tr.sentLog[2])
	}
}

func TestBroadcastPhaseErrorTriggersErrorPhase(t *testing.T) {
	// Non-leader at level 2 sees Error(1) at phase end → adopts the lower
	// level, broadcasts Error(1) until a matching Reset(1) arrives (which
	// outranks it per the interleaving law), joins it, and performs the
	// reset.
	reset := wire.Reset(1 /* level */, 3 /* starting round */, 2 /* new diam */)
	tr := newFakeTransport(t,
		[]wire.Message{wire.Error(1)}, // phase step: error arrives
		[]wire.Message{},              // error phase step 1: nothing
		[]wire.Message{reset},         // error phase step 2: reset arrives
		[]wire.Message{reset},         // reset forwarding until round 5
		[]wire.Message{},
	)
	p := newUnitProcess(t, tr, false)
	p.diamEstimate = 1
	p.snapshots[1] = snapshot{myID: 1, nextFreshID: 2}
	p.snapshots[2] = snapshot{myID: 1, nextFreshID: 2}
	p.currentLevel = 2

	_, restart, err := p.broadcastPhase(wire.Done(5))
	if err != nil {
		t.Fatal(err)
	}
	if !restart {
		t.Fatal("expected restart")
	}
	if p.diamEstimate != 2 {
		t.Fatalf("diamEstimate=%d, want the reset's 2", p.diamEstimate)
	}
	if p.currentLevel != 1 {
		t.Fatalf("currentLevel=%d, want the reset level 1", p.currentLevel)
	}
	// The error phase must have broadcast Error(1) (adopting the lower
	// level), not Error(2).
	found := false
	for _, m := range tr.sentLog {
		if m.Label == wire.LabelError {
			found = true
			if m.A != 1 {
				t.Fatalf("broadcast Error(%d), want the adopted level 1", m.A)
			}
		}
	}
	if !found {
		t.Fatal("no Error message was broadcast")
	}
}

func TestErrorRefusesLowerPriorityReset(t *testing.T) {
	// An Error for level 0 must NOT join a Reset for level 1 — the
	// interleaving law of Section 3.2 (Reset k+1 < Error k < Reset k). The
	// scripted run exhausts, proving the error phase kept broadcasting.
	tr := newFakeTransport(t,
		[]wire.Message{wire.Reset(1, 1, 2)},
		[]wire.Message{wire.Reset(1, 1, 2)},
	)
	p := newUnitProcess(t, tr, false)
	err := p.broadcastError(0)
	if !errors.Is(err, engine.ErrStopped) {
		t.Fatalf("err=%v; the error phase should have outlived the script", err)
	}
	for _, m := range tr.sentLog {
		if m.Label == wire.LabelReset {
			t.Fatal("the process forwarded a reset it must not join")
		}
	}
}

func TestHaltForwardUnwinds(t *testing.T) {
	halt := wire.Halt(4 /* n */, 1 /* starting round */)
	tr := newFakeTransport(t,
		[]wire.Message{halt}, // received during a step at round 1
		[]wire.Message{},     // forwarding rounds until 1+4
		[]wire.Message{},
		[]wire.Message{},
		[]wire.Message{},
	)
	p := newUnitProcess(t, tr, false)
	p.cfg.SimultaneousHalt = true
	_, err := p.relay(wire.Null(), 1, false)
	var h *haltedError
	if !errors.As(err, &h) {
		t.Fatalf("err = %v, want haltedError", err)
	}
	if h.n != 4 {
		t.Fatalf("halted with n=%d", h.n)
	}
	if h.round != 5 {
		t.Fatalf("halted at round %d, want c+n = 5", h.round)
	}
}

func TestPerformLevelResetRestoresSnapshots(t *testing.T) {
	p := newUnitProcess(t, newFakeTransport(t), false)
	p.snapshots[1] = snapshot{myID: 1, nextFreshID: 2}
	p.snapshots[2] = snapshot{myID: 7, nextFreshID: 9}
	p.myID = 11
	p.nextFreshID = 14
	p.currentLevel = 2
	// Fake a deeper VHT.
	n1 := p.vht.NodeByID(1)
	if _, err := p.vht.AddChild(7, n1, historytree.Input{}); err != nil {
		t.Fatal(err)
	}

	if err := p.performReset(1, 4); err != nil {
		t.Fatal(err)
	}
	if p.myID != 1 || p.nextFreshID != 2 {
		t.Fatalf("state not restored: myID=%d fresh=%d", p.myID, p.nextFreshID)
	}
	if p.vht.Depth() != 0 {
		t.Fatalf("VHT depth %d after reset to level 1", p.vht.Depth())
	}
	if _, ok := p.snapshots[2]; ok {
		t.Fatal("stale snapshot survived")
	}
	if p.diamEstimate != 4 {
		t.Fatalf("diamEstimate=%d", p.diamEstimate)
	}
}

func TestPerformResetUnknownLevelFails(t *testing.T) {
	p := newUnitProcess(t, newFakeTransport(t), false)
	if err := p.performReset(3, 2); err == nil {
		t.Fatal("reset to a never-started level must fail")
	}
}

func TestMakeVHTMessageStates(t *testing.T) {
	p := newUnitProcess(t, newFakeTransport(t), false)
	// With observations pending: an Edge for the first one.
	p.obsList = []obs{{id2: 0, mult: 1}, {id2: 1, mult: 2}}
	if m := p.makeVHTMessage(); m != wire.Edge(1, 0, 1) {
		t.Fatalf("got %s", m)
	}
	// Empty obsList, node not yet in VHT: Done.
	p.obsList = nil
	p.myID = 42
	if m := p.makeVHTMessage(); m != wire.Done(42) {
		t.Fatalf("got %s", m)
	}
	// Node in VHT: End.
	p.myID = 1
	if m := p.makeVHTMessage(); m != wire.End() {
		t.Fatalf("got %s", m)
	}
}

func TestSetUpNewLevelGroupsBegins(t *testing.T) {
	tr := newFakeTransport(t, []wire.Message{
		wire.Begin(0), wire.Begin(0), // two links to the leader class
		wire.Begin(1), // a same-ID neighbor: dropped
		wire.Begin(5), wire.Begin(5), wire.Begin(5),
	})
	p := newUnitProcess(t, tr, false) // myID = 1
	// Level-graph setup needs a node with ID 5 at level 0; fake it.
	if _, err := p.vht.AddChild(5, p.vht.Root(), historytree.Input{Value: 9}); err != nil {
		t.Fatal(err)
	}
	restart, err := p.setUpNewLevel()
	if err != nil || restart {
		t.Fatalf("restart=%v err=%v", restart, err)
	}
	want := []obs{{id2: 0, mult: 2}, {id2: 5, mult: 3}, {id2: 1, mult: 2}}
	if len(p.obsList) != len(want) {
		t.Fatalf("obsList=%v", p.obsList)
	}
	for i, o := range want {
		if p.obsList[i] != o {
			t.Fatalf("obsList[%d]=%v, want %v", i, p.obsList[i], o)
		}
	}
}

// TestSetUpNewLevelSnapshotsObsListForFineResets pins where the begin
// round's observation list is copied: into the level's snapshot under
// FineGrainedReset, whose mid-level resume reads it back, and nowhere
// otherwise. An intruder in the begin round still leaves the degraded list
// in the snapshot; the scripted transport then ends the error phase.
func TestSetUpNewLevelSnapshotsObsListForFineResets(t *testing.T) {
	plain := []wire.Message{wire.Begin(0), wire.Begin(0), wire.Begin(1)}
	intruded := []wire.Message{wire.Begin(0), wire.Error(1)}
	for _, tc := range []struct {
		name   string
		fine   bool
		begins []wire.Message
		want   []obs
	}{
		{"basic", false, plain, nil},
		{"basic-intruder", false, intruded, nil},
		{"fine", true, plain, []obs{{id2: 0, mult: 2}, {id2: 1, mult: 2}}},
		{"fine-intruder", true, intruded, []obs{{id2: 0, mult: 1}, {id2: 1, mult: 2}}},
	} {
		tr := newFakeTransport(t, tc.begins)
		p := newUnitProcessWith(tr, Config{Mode: ModeLeader, FineGrainedReset: tc.fine}, false) // myID = 1
		if _, err := p.setUpNewLevel(); err != nil && !errors.Is(err, engine.ErrStopped) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snap, ok := p.snapshots[1]
		if !ok {
			t.Fatalf("%s: begin snapshot missing", tc.name)
		}
		if !slices.Equal(snap.obsList, tc.want) || (snap.obsList == nil) != (tc.want == nil) {
			t.Fatalf("%s: snapshot obsList %v, want %v", tc.name, snap.obsList, tc.want)
		}
		if tc.fine && &snap.obsList[0] == &p.obsList[0] {
			t.Fatalf("%s: snapshot shares the live observation list's storage", tc.name)
		}
	}
}

func TestSetUpNewLevelIntruderTriggersError(t *testing.T) {
	reset := wire.Reset(1, 1, 2)
	tr := newFakeTransport(t,
		[]wire.Message{wire.Begin(0), wire.Error(1)}, // begin round with an intruder
		[]wire.Message{reset},                        // error phase: reset arrives
		[]wire.Message{},                             // reset forwarding to round 3
	)
	p := newUnitProcess(t, tr, false)
	restart, err := p.setUpNewLevel()
	if err != nil {
		t.Fatal(err)
	}
	if !restart {
		t.Fatal("intruder must trigger a restart")
	}
	// The begin snapshot must exist anyway: the reset restores it. (Under
	// fine-grained resets it also holds the degraded observation list;
	// see TestSetUpNewLevelSnapshotsObsListForFineResets.)
	if _, ok := p.snapshots[1]; !ok {
		t.Fatal("begin snapshot missing")
	}
}
