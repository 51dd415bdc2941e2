package core

import (
	"reflect"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	testoracle "anondyn/internal/oracle"
	"anondyn/internal/wire"
)

// share_test.go pins cross-process structural sharing (share.go, DESIGN.md
// decision 15): a shared run must be indistinguishable from a private
// per-process run in every observable — answer, rounds, levels, message
// totals, tree bytes, residency counters — while actually collapsing the
// n-fold work (hits ≫ applies). Forks can occur even in-model (a double
// broadcast failure slips a divergent message past the ack comparison);
// they must not change any observable, because the fork replays the
// member's exact verified prefix and the member rejoins at the protocol's
// own reset.

// runPair executes the same job with sharing on and off and returns
// (shared, private).
func runPair(t *testing.T, s dynnet.Schedule, inputs []historytree.Input, cfg Config, opts RunOptions) (*RunResult, *RunResult) {
	t.Helper()
	shared, err := Run(s, inputs, cfg, opts)
	if err != nil {
		t.Fatalf("shared run: %v", err)
	}
	private, err := run(engine.Config{Schedule: s}, s.N(), inputs, cfg, opts, oracle{private: true})
	if err != nil {
		t.Fatalf("private run: %v", err)
	}
	return shared, private
}

// requireSameResult compares every protocol-visible dimension of two runs.
// Tree bytes are compared when both runs kept their tree.
func requireSameResult(t *testing.T, shared, private *RunResult) {
	t.Helper()
	if shared.N != private.N {
		t.Fatalf("N: shared %d, private %d", shared.N, private.N)
	}
	if len(shared.Multiset) != len(private.Multiset) {
		t.Fatalf("multiset size: shared %v, private %v", shared.Multiset, private.Multiset)
	}
	for in, c := range private.Multiset {
		if shared.Multiset[in] != c {
			t.Fatalf("multiset at %+v: shared %d, private %d", in, shared.Multiset[in], c)
		}
	}
	if !sameFrequencies(shared.Frequencies, private.Frequencies) {
		t.Fatalf("frequencies: shared %+v, private %+v", shared.Frequencies, private.Frequencies)
	}
	ss, ps := shared.Stats, private.Stats
	if ss.Rounds != ps.Rounds || ss.Levels != ps.Levels || ss.Resets != ps.Resets ||
		ss.FinalDiamEstimate != ps.FinalDiamEstimate {
		t.Fatalf("run shape: shared rounds=%d levels=%d resets=%d diam=%d, private rounds=%d levels=%d resets=%d diam=%d",
			ss.Rounds, ss.Levels, ss.Resets, ss.FinalDiamEstimate,
			ps.Rounds, ps.Levels, ps.Resets, ps.FinalDiamEstimate)
	}
	if ss.TotalMessages != ps.TotalMessages || ss.TotalBits != ps.TotalBits ||
		ss.MaxMessageBits != ps.MaxMessageBits {
		t.Fatalf("traffic: shared (%d msgs, %d bits, max %d), private (%d msgs, %d bits, max %d)",
			ss.TotalMessages, ss.TotalBits, ss.MaxMessageBits,
			ps.TotalMessages, ps.TotalBits, ps.MaxMessageBits)
	}
	if ss.ResidentNodes != ps.ResidentNodes || ss.PeakResidentNodes != ps.PeakResidentNodes {
		t.Fatalf("residency: shared (%d live, %d peak), private (%d live, %d peak)",
			ss.ResidentNodes, ss.PeakResidentNodes, ps.ResidentNodes, ps.PeakResidentNodes)
	}
	if shared.VHT != nil && private.VHT != nil {
		if g, w := testoracle.CanonicalForm(shared.VHT), testoracle.CanonicalForm(private.VHT); g != w {
			t.Fatalf("canonical form mismatch:\n shared %q\nprivate %q", g, w)
		}
	}
}

// requireWitnessAgrees re-solves a leader run's final VHT at every level
// up to the decision level under both arithmetic backends: the modular
// count must equal the big.Int witness's (same Known flag, same answer),
// and the run's own modular solver must never have fallen back to the
// witness. It is the leader-mode part of check.VerifyWitness, which this
// package cannot import.
func requireWitnessAgrees(t *testing.T, res *RunResult) {
	t.Helper()
	if res.Stats.SolverWitnessFalls != 0 {
		t.Fatalf("solver fell back to the big.Int witness %d times", res.Stats.SolverWitnessFalls)
	}
	for l := 0; l <= res.Stats.Levels; l++ {
		mod, modErr := historytree.CountModular(res.VHT, l)
		big, bigErr := historytree.Count(res.VHT, l)
		if modErr != nil || bigErr != nil {
			t.Fatalf("level %d: modular error %v, big error %v", l, modErr, bigErr)
		}
		if !reflect.DeepEqual(mod, big) {
			t.Fatalf("level %d: modular %+v, big %+v", l, mod, big)
		}
	}
}

// TestSharedVHTEquivalence sweeps the configuration surface: modes,
// extensions and batching must all be byte-equivalent
// between shared and private runs. The leader-bigint row also re-solves
// the shared run's tree under the big.Int witness.
func TestSharedVHTEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		n          int
		leaderless bool
		witness    bool
	}{
		{"leader-basic", Config{Mode: ModeLeader}, 12, false, false},
		{"leader-inputs", Config{Mode: ModeLeader, BuildInputLevel: true}, 10, false, false},
		{"leader-batch", Config{Mode: ModeLeader, BatchSize: 4}, 10, false, false},
		{"leader-bigint", Config{Mode: ModeLeader}, 9, false, true},
		{"leader-halt", Config{Mode: ModeLeader, SimultaneousHalt: true}, 8, false, false},
		{"leaderless", Config{Mode: ModeLeaderless}, 10, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{3, 17} {
				cfg := tc.cfg
				cfg.MaxLevels = 3*tc.n + 6
				var inputs []historytree.Input
				if tc.leaderless {
					cfg.DiamBound = tc.n
					inputs = make([]historytree.Input, tc.n)
					for i := range inputs {
						inputs[i].Value = int64(i % 3)
					}
				} else {
					inputs = leaderInputs(tc.n)
					if cfg.BuildInputLevel {
						for i := range inputs {
							inputs[i].Value = int64(i % 2)
						}
					}
				}
				s := dynnet.NewRandomConnected(tc.n, 0.4, seed)
				shared, private := runPair(t, s, inputs, cfg, RunOptions{})
				requireSameResult(t, shared, private)
				if tc.witness {
					requireWitnessAgrees(t, shared)
				}
				if shared.Stats.SharedForks != 0 && shared.Stats.Resets == 0 {
					// A fork needs a divergent acceptance, which the ack
					// machinery always catches with a reset eventually.
					t.Fatalf("seed %d: %d forks but no resets", seed, shared.Stats.SharedForks)
				}
				if shared.Stats.SharedApplies == 0 || shared.Stats.SharedHits == 0 {
					t.Fatalf("seed %d: sharing never engaged (applies=%d hits=%d)",
						seed, shared.Stats.SharedApplies, shared.Stats.SharedHits)
				}
				if private.Stats.SharedApplies != 0 || private.Stats.SharedHits != 0 {
					t.Fatalf("seed %d: private run reports sharing counters %+v", seed, private.Stats)
				}
			}
		})
	}
}

// TestSharedVHTHitRate pins the collapse factor: on an n-process fault-free
// run every logged operation is applied once and verified n-1 times, minus
// only the tail a process skips after terminating early, so hits must far
// exceed applies.
func TestSharedVHTHitRate(t *testing.T) {
	const n = 8
	s := dynnet.NewRandomConnected(n, 0.5, 11)
	res, err := Run(s, leaderInputs(n), Config{Mode: ModeLeader, MaxLevels: 3*n + 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SharedForks != 0 {
		t.Fatalf("%d forks on a fault-free run", st.SharedForks)
	}
	if st.SharedHits < int64(n-2)*st.SharedApplies {
		t.Fatalf("hit rate too low: %d hits for %d applies on %d processes",
			st.SharedHits, st.SharedApplies, n)
	}
	if st.SharedHits > int64(n-1)*st.SharedApplies {
		t.Fatalf("hits %d exceed (n-1)×applies (%d × %d): double-counted verification",
			st.SharedHits, n-1, st.SharedApplies)
	}
}

// twoSharedProcs builds a two-member group with initialized processes, as
// run() would, without an engine underneath — enough to unit-test the
// gate, fork, and truncate mechanics directly.
func twoSharedProcs(cfg Config) (*Process, *Process, *shareGroup) {
	g := newShareGroup(cfg, 2)
	p0 := NewProcess(cfg, historytree.Input{Leader: true})
	p1 := NewProcess(cfg, historytree.Input{})
	p0.group, p0.member = g, 0
	p1.group, p1.member = g, 1
	p0.initialize()
	p1.initialize()
	return p0, p1, g
}

// TestSharedVHTForkOnDivergence drives the log to a mismatch: the diverging
// member must detach onto a replay of exactly the prefix it verified — the
// other branch's in-flight op must NOT leak into the private copy — while
// the group (and the member that applied first) keeps the shared state.
func TestSharedVHTForkOnDivergence(t *testing.T) {
	p0, p1, g := twoSharedProcs(Config{Mode: ModeLeader})
	if err := p0.resetLevelState(1); err != nil {
		t.Fatal(err)
	}
	if err := p1.resetLevelState(1); err != nil {
		t.Fatal(err)
	}
	if err := p0.applyAccepted(wire.Edge(0, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	// p1 "accepted" a different edge: mismatch at the opTemp gate.
	mutate, err := p1.opGate(opTemp, 0, 1, 2)
	if err != nil {
		t.Fatalf("fork must succeed: %v", err)
	}
	if !mutate {
		t.Fatal("post-fork gate must tell the caller to mutate privately")
	}
	if p1.group != nil {
		t.Fatal("diverged member still attached to the group")
	}
	if p1.forkedFrom != g {
		t.Fatal("diverged member did not remember its group for rejoining")
	}
	if p1.vht == g.tree {
		t.Fatal("diverged member still shares the tree")
	}
	if got, want := testoracle.CanonicalForm(p1.vht), testoracle.CanonicalForm(g.tree); got != want {
		t.Fatalf("fork replay differs from shared tree:\n got %q\nwant %q", got, want)
	}
	if p1.temp != &p1.tempScratch || p1.lg != &p1.lgScratch {
		t.Fatal("diverged member's temp/lg not repointed at private scratch")
	}
	// The replay stops at p1's cursor: p0's divergent temp node (ID 2) is
	// absent, so p1's own mutation can reuse the fresh ID without colliding.
	if p1.temp.node(2) != nil {
		t.Fatal("fork replay leaked the other branch's in-flight op")
	}
	if p1.temp.node(0) == nil || p1.temp.node(1) == nil {
		t.Fatal("fork replay lost the level's temp roots")
	}
	if err := p1.updateTempVHT(0, 1, 2); err != nil {
		t.Fatalf("post-fork private mutation: %v", err)
	}
	if p1.temp.node(2) == nil {
		t.Fatal("post-fork private mutation did not create the temp node")
	}
	if g.forks != 1 || p1.forkedFrom != g {
		t.Fatalf("group bookkeeping: forks=%d forkedFrom=%p", g.forks, p1.forkedFrom)
	}
	// p0 is unaffected and keeps mutating shared state.
	if p0.group == nil || p0.vht != g.tree {
		t.Fatal("non-diverged member lost its group attachment")
	}
}

// TestSharedVHTTruncateResync: a member that sat out a level's tail in an
// error phase has a lagging cursor; joining the group's truncation must
// jump it over the unapplied ops, while a member joining a different reset
// forks.
func TestSharedVHTTruncateResync(t *testing.T) {
	p0, p1, g := twoSharedProcs(Config{Mode: ModeLeader})
	if err := p0.resetLevelState(1); err != nil {
		t.Fatal(err)
	}
	if err := p0.applyAccepted(wire.Edge(0, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	// p1 lagged (cursor 0). Both now join the same reset; p1 arrives first.
	if err := g.truncate(p1, 1, 2, 40, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.truncate(p0, 1, 2, 40, 2); err != nil {
		t.Fatal(err)
	}
	if g.lastOp[0] != len(g.ops) || g.lastOp[1] != len(g.ops) {
		t.Fatalf("cursors %v not at log end %d after resync", g.lastOp, len(g.ops))
	}
	// A third reset record that differs from the joiner's forks it.
	if err := g.truncate(p1, 1, 4, 60, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.truncate(p0, 1, 2, 60, 2); err != nil {
		t.Fatal(err)
	}
	if p0.group != nil {
		t.Fatal("member joining a different reset must fork")
	}
	if p1.group == nil {
		t.Fatal("first applier must stay attached")
	}
	if g.forks != 1 {
		t.Fatalf("forks = %d, want 1", g.forks)
	}
}

// TestSharedVHTRejoinAfterFork: a level reset rolls every participant back
// to the agreed begin-of-level snapshot, which is where a forked member's
// private state and the shared state coincide — so joining the same reset
// must reattach it. A forked member can even be the first participant to
// record the reset.
func TestSharedVHTRejoinAfterFork(t *testing.T) {
	p0, p1, g := twoSharedProcs(Config{Mode: ModeLeader})
	if err := p0.resetLevelState(1); err != nil {
		t.Fatal(err)
	}
	if err := p0.applyAccepted(wire.Edge(0, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	_, err := p1.opGate(opTemp, 0, 1, 2) // divergence: p1 forks
	if err != nil {
		t.Fatal(err)
	}
	if p1.group != nil || p1.forkedFrom != g {
		t.Fatal("fork bookkeeping broken")
	}
	// p1 reaches its performReset first: it records the truncation on the
	// shared log, truncates the shared tree, and reattaches.
	g.rejoin(p1, 1, 2, 40, 2)
	if p1.group != g || p1.vht != g.tree {
		t.Fatal("forked member did not rejoin on a matching reset")
	}
	// p0 joins the same reset and resynchronizes against p1's record.
	if err := g.truncate(p0, 1, 2, 40, 2); err != nil {
		t.Fatal(err)
	}
	if g.lastOp[0] != len(g.ops) || g.lastOp[1] != len(g.ops) {
		t.Fatalf("cursors %v not at log end %d after rejoin", g.lastOp, len(g.ops))
	}
	// A rejoin attempt for a reset that differs from the group's record
	// must leave the member private.
	if _, err := p1.opGate(opTemp, 0, 1, 1); err != nil { // p1 logs an op...
		t.Fatal(err)
	}
	if _, err := p0.opGate(opTemp, 0, 1, 3); err != nil { // ...p0 diverges
		t.Fatal(err)
	}
	if err := g.truncate(p1, 1, 4, 80, 2); err != nil {
		t.Fatal(err)
	}
	g.rejoin(p0, 1, 8, 80, 2)
	if p0.group != nil {
		t.Fatal("member rejoining a different reset must stay private")
	}
}
