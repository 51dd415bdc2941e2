package core

import (
	"fmt"

	"anondyn/internal/historytree"
)

// Cross-process structural sharing (DESIGN.md decision 15). In a fault-free
// run every non-error process accepts the same message sequence, so the n
// private VHTs, temporary forests, and level graphs are structurally
// identical at every round — n copies of one data structure, n executions
// of every accepted message. A shareGroup collapses them: the processes of
// one run hold a single shared tree, temp forest, and level graph, and an
// append-only operation log turns the n-fold application of each accepted
// message into one mutation plus n-1 O(1) verifications.
//
// The log is the correctness mechanism, not just bookkeeping. Every
// structural mutation a process would perform is first funneled through
// opGate as an opRec; the first process to reach a given log position
// appends its record and mutates the shared state, and every later process
// compares its own record against the logged one. A match means the shared
// state already reflects exactly the mutation this process would have made
// — it advances its cursor and keeps only its private bookkeeping (ID
// adoption, observation pruning). A mismatch means the process diverged
// from the group: it forks — rebuilds private structures by replaying the
// log prefix it verified and continues alone, exactly as if sharing had
// been off — and may rejoin at the next level reset, which rolls all state
// back to an agreed snapshot. Divergence needs no out-of-model fault: with
// a too-small diameter estimate a double broadcast failure can carry a
// divergent message past the acknowledgment comparison, and the protocol
// recovers through its normal reset machinery.
//
// No locks. A run is single-threaded (see package engine): members run one
// at a time, each from one engine call to its next, so a member's protocol
// action (one applyAccepted, one level setup, one solver evaluation) is
// never interleaved with another's. That granularity is what correctness
// needs: a member verifying the first pair of a batch must not observe a
// state where another member has already applied later pairs its own
// bookkeeping has not caught up with. Even "read-only" steps mutate the
// shared structures (the solver memoizes balance pairs on the tree, and
// the level graph's union-find compresses paths on lookup), which is safe
// for the same reason.
//
// Resets stay in-model. All non-error processes perform a level reset at
// the same globally agreed round, but an error-phase process stops
// consuming acceptances first, so its cursor lags the log. truncate
// resynchronizes: ops between the lagging cursor and the joint opTruncate
// record touch only levels the truncation removes, so the cursor jumps over
// them. A truncate record that differs from the process's own is
// divergence, handled by the same fork path.
type shareGroup struct {
	tree *historytree.Tree
	temp tempVHT
	lg   levelGraph

	ops    []opRec
	lastOp []int // per-member log cursor
	ids    []int // scratch for opSetup root rebuilds

	applies int64 // ops appended (first-arrival mutations)
	hits    int64 // ops verified against the log
	forks   int   // members that diverged and went private
}

// opKind tags one logged structural operation.
type opKind int8

const (
	// opTemp is one updateTempVHT application: a red-edge triplet added to
	// the temporary forest and the level graph.
	opTemp opKind = iota + 1
	// opDone is one updateVHT application: a temporary node promoted into
	// the VHT.
	opDone
	// opInput is one acceptInput application: a level-0 input class created.
	opInput
	// opSetup is one resetLevelState: temp forest and level graph rebuilt on
	// a level's begin round.
	opSetup
	// opTruncate is one performLevelReset truncation of the shared tree.
	opTruncate
)

// opRec is one logged operation. Records are compared with ==, so the
// argument meaning is fixed per kind: (id1, id2, mult) for opTemp, (id, 0,
// 0) for opDone, the message parameters for opInput, (level, 0, 0) for
// opSetup, and (resetLevel, newDiam, finalRound) for opTruncate. d is used
// only by opTruncate: the agreed post-reset fresh-ID counter, which lets a
// log replay restore the ID sequence across resets.
type opRec struct {
	kind       opKind
	a, b, c, d int64
}

// newShareGroup builds the group's shared state for n processes: the same
// initial tree initialize would build privately (root-only when level 0 is
// constructed from inputs, the pre-agreed {leader, non-leader} partition
// otherwise).
func newShareGroup(cfg Config, n int) *shareGroup {
	g := &shareGroup{
		tree:   historytree.New(),
		lastOp: make([]int, n),
	}
	if !cfg.buildsInputLevel() {
		if _, err := g.tree.AddChild(0, g.tree.Root(), historytree.Input{Leader: true}); err != nil {
			panic(err) // fresh tree; cannot fail
		}
		if _, err := g.tree.AddChild(1, g.tree.Root(), historytree.Input{}); err != nil {
			panic(err)
		}
	}
	return g
}

// opGate funnels one structural operation through the log. The return
// reports whether the caller
// must perform the mutation itself: true at first arrival (the record was
// appended) and after a fork (the caller went private and p.group is nil);
// false when the log verified the operation was already applied. The error
// is non-nil only when a divergent member's log replay fails (a corrupt
// log, impossible without memory corruption).
func (p *Process) opGate(kind opKind, a, b, c int64) (bool, error) {
	g := p.group
	if g == nil {
		return true, nil
	}
	rec := opRec{kind: kind, a: a, b: b, c: c}
	cur := g.lastOp[p.member]
	if cur == len(g.ops) {
		g.ops = append(g.ops, rec)
		g.lastOp[p.member] = cur + 1
		g.applies++
		return true, nil
	}
	if g.ops[cur] == rec {
		g.lastOp[p.member] = cur + 1
		g.hits++
		return false, nil
	}
	if err := p.forkFromGroup(); err != nil {
		return false, err
	}
	return true, nil
}

// forkFromGroup detaches a diverged member by replaying the operation log
// up to the member's own cursor into process-owned storage, then clears
// p.group so every subsequent operation runs on private state with opGate
// short-circuiting.
//
// Replaying — rather than cloning the live shared structures — makes the
// fork exact: the cursor-bounded prefix is precisely the sequence of
// mutations this member verified or applied, so the rebuilt state is
// byte-for-byte what a private run of this process would hold at the same
// point. A clone would instead carry the other branch's partial ops for
// the in-flight acceptance: members that ran ahead of this one have
// already appended and applied them, so the clone would hold nodes and
// fresh IDs this member never assigned. Divergence is rare — a double
// broadcast failure that slips a wrong message past the ack comparison, or
// any out-of-model fault — so the O(log) rebuild cost is irrelevant.
func (p *Process) forkFromGroup() error {
	g := p.group
	g.forks++
	p.group = nil
	p.forkedFrom = g
	tree, err := g.rebuildAt(p.cfg, g.lastOp[p.member], &p.tempScratch, &p.lgScratch)
	if err != nil {
		return fmt.Errorf("core: process diverged from the shared VHT and the log replay failed: %w", err)
	}
	p.vht = tree
	if p.temp != nil {
		p.temp = &p.tempScratch
	}
	if p.lg != nil {
		p.lg = &p.lgScratch
	}
	return nil
}

// rebuildAt replays ops[:upTo] from scratch: a fresh tree (seeded exactly
// as newShareGroup seeds the shared one) plus the caller's scratch forest
// and level graph. The replay mirrors the mutate branches of acceptInput, updateTempVHT, updateVHT,
// resetLevelState, and performLevelReset; the fresh-ID counter is
// reconstructed by counting ID-consuming ops, with opTruncate records
// restoring it to the logged post-reset value.
func (g *shareGroup) rebuildAt(cfg Config, upTo int, temp *tempVHT, lg *levelGraph) (*historytree.Tree, error) {
	tree := historytree.New()
	if !cfg.buildsInputLevel() {
		if _, err := tree.AddChild(0, tree.Root(), historytree.Input{Leader: true}); err != nil {
			return nil, err
		}
		if _, err := tree.AddChild(1, tree.Root(), historytree.Input{}); err != nil {
			return nil, err
		}
	}
	temp.reset(nil)
	lg.reset(nil)
	freshID := 2
	var ids []int
	var redBuf []obs
	for _, rec := range g.ops[:upTo] {
		switch rec.kind {
		case opSetup:
			ids = ids[:0]
			for _, v := range tree.Level(int(rec.a) - 1) {
				ids = append(ids, v.ID)
			}
			temp.reset(ids)
			lg.reset(ids)
		case opInput:
			in := historytree.Input{Leader: rec.c == 1, Value: rec.b}
			if _, err := tree.AddChild(freshID, tree.Root(), in); err != nil {
				return nil, err
			}
			freshID++
		case opTemp:
			id1, id2, mult := int(rec.a), int(rec.b), int(rec.c)
			root1 := temp.root(id1)
			root2 := temp.root(id2)
			if root1 == nil || root2 == nil {
				return nil, fmt.Errorf("core: replayed edge (%d,%d,%d) references unknown temp nodes", id1, id2, mult)
			}
			if _, err := temp.addChild(freshID, id1, root2.id, mult); err != nil {
				return nil, err
			}
			if !cfg.keepAllLinks() && root1.id != root2.id && !lg.hasEdge(root1.id, root2.id) {
				if err := lg.addEdge(root1.id, root2.id); err != nil {
					return nil, err
				}
			}
			freshID++
		case opDone:
			id := int(rec.a)
			tempRoot := temp.root(id)
			if tempRoot == nil {
				return nil, fmt.Errorf("core: replayed Done(%d) references unknown temp node", id)
			}
			parent := tree.NodeByID(tempRoot.id)
			if parent == nil {
				return nil, fmt.Errorf("core: replayed temp root %d has no VHT counterpart", tempRoot.id)
			}
			child, err := tree.AddChild(id, parent, historytree.Input{})
			if err != nil {
				return nil, err
			}
			redBuf, err = temp.appendPathRedEdges(id, redBuf[:0])
			if err != nil {
				return nil, err
			}
			for _, o := range redBuf {
				srcNode := tree.NodeByID(o.id2)
				if srcNode == nil {
					return nil, fmt.Errorf("core: replayed red edge source %d missing from VHT", o.id2)
				}
				if err := tree.AddRed(child, srcNode, o.mult); err != nil {
					return nil, err
				}
			}
		case opTruncate:
			tree.TruncateLevels(int(rec.a))
			freshID = int(rec.d)
			// temp and lg stay stale, exactly as the live member's do
			// between a reset and the next level's opSetup.
		default:
			return nil, fmt.Errorf("core: unknown op kind %d in shared log", rec.kind)
		}
	}
	return tree, nil
}

// truncate joins a level reset on the shared tree. All non-error members
// perform the reset at the same agreed round, but members that sat out the
// level's tail in an error phase have lagging cursors; ops between such a
// cursor and the joint truncate record affect only levels the truncation
// removes, so the cursor jumps over them. The first member to arrive
// appends the record and truncates; a recorded truncate that differs from
// rec means this member joined a different reset than the group — it forks
// and the caller truncates its private copy.
func (g *shareGroup) truncate(p *Process, resetLevel, newDiam, finalRound, freshID int) error {
	rec := opRec{kind: opTruncate, a: int64(resetLevel), b: int64(newDiam), c: int64(finalRound), d: int64(freshID)}
	for i := g.lastOp[p.member]; i < len(g.ops); i++ {
		if g.ops[i] == rec {
			g.lastOp[p.member] = i + 1
			g.hits++
			return nil
		}
		if g.ops[i].kind == opTruncate {
			return p.forkFromGroup()
		}
	}
	g.ops = append(g.ops, rec)
	g.lastOp[p.member] = len(g.ops)
	g.applies++
	g.tree.TruncateLevels(resetLevel)
	return nil
}

// rejoin lets a forked member rejoin the group at a level reset. A reset
// rolls every participant back to the agreed begin-of-level snapshot, which
// is exactly the point where the forked member's private state and the
// shared state coincide again — the divergence that caused the fork lives
// entirely in levels the truncation removes. The member resynchronizes like
// a lagging cursor in truncate: ops between its fork point and the joint
// truncate record touch only truncated levels. If the group recorded a
// different reset, the member stays private; rejoining is an optimization,
// never a requirement.
func (g *shareGroup) rejoin(p *Process, resetLevel, newDiam, finalRound, freshID int) {
	rec := opRec{kind: opTruncate, a: int64(resetLevel), b: int64(newDiam), c: int64(finalRound), d: int64(freshID)}
	for i := g.lastOp[p.member]; i < len(g.ops); i++ {
		if g.ops[i] == rec {
			g.lastOp[p.member] = i + 1
			g.hits++
			g.attach(p)
			return
		}
		if g.ops[i].kind == opTruncate {
			return
		}
	}
	// First participant to perform this reset: record it and truncate the
	// shared tree. Attached members hit the record when their own
	// performReset runs at the same agreed round.
	g.ops = append(g.ops, rec)
	g.lastOp[p.member] = len(g.ops)
	g.applies++
	g.tree.TruncateLevels(resetLevel)
	g.attach(p)
}

// attach puts a member back on the shared structures.
func (g *shareGroup) attach(p *Process) {
	p.group = g
	p.vht = g.tree
}

// statsSnapshot returns the log counters for RunStats.
func (g *shareGroup) statsSnapshot() (applies, hits int64, forks int) {
	return g.applies, g.hits, g.forks
}
