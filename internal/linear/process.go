package linear

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/ints"
)

// classInfo describes one hash-consed history-tree class: its level, its
// parent class, the multiset of classes it heard from during its block
// (with multiplicities) and, for level-0 classes, the input. fixed caches
// the class's position-independent wire bytes (see fixedBytes).
type classInfo struct {
	level  int32
	parent int32 // class ID of the parent; -1 for level-0 classes
	reds   []redRef
	input  historytree.Input
	fixed  int32
}

type redRef struct {
	src  int32 // class ID at level-1
	mult int32
}

// interner hash-conses classInfos into dense integer IDs, shared by all
// processes of a run: two processes constructing structurally identical
// classes obtain the same ID, which is exactly the "merge equivalent view
// nodes" step of the full-information protocol — realized without
// re-encoding entire subtrees into every message. ID assignment order
// depends on the order in which processes run, so nothing observable may
// depend on the numeric IDs; message sizes order classes by content
// instead, through the canonical ranks of sizer.go.
//
// A run's processes take turns on the engine's one inline runner, so the
// interner is only ever used by one process at a time and takes no lock;
// it must not be shared between concurrent runs.
type interner struct {
	byKey  map[string]int32
	infos  []classInfo
	keyBuf []byte // key-rendering scratch

	// The canonical rank tables (see rankLevel): the class IDs at each
	// level, each class's rank within its level, and per level the class
	// count at its last ranking.
	levels [][]int32
	rank   []int32
	ranked []int
}

func newInterner() *interner {
	return &interner{byKey: make(map[string]int32)}
}

// intern returns the class ID for the given description, registering it
// if new and taking ownership of the reds slice. reds must be in
// canonical (sorted by src) order. A deeper class's parent and red
// sources must sit exactly one level up: the engine's lock-step refines
// every process at the same rounds, and the canonical ranks rely on it,
// so intern fails rather than assume it.
func (in *interner) intern(ci classInfo) (int32, error) {
	if ci.level > 0 {
		if l := in.infos[ci.parent].level; l != ci.level-1 {
			return -1, fmt.Errorf("linear: class at level %d has its parent at level %d", ci.level, l)
		}
		for _, r := range ci.reds {
			if l := in.infos[r.src].level; l != ci.level-1 {
				return -1, fmt.Errorf("linear: class at level %d heard a class at level %d; processes left lock-step",
					ci.level, l)
			}
		}
	}
	// Injective byte rendering ('|' and '*' never occur inside a decimal
	// field), built in a reused scratch buffer so lookups of known
	// classes allocate nothing.
	buf := in.keyBuf[:0]
	buf = ints.AppendInt(buf, int(ci.level))
	buf = append(buf, '|')
	buf = ints.AppendInt(buf, int(ci.parent))
	for _, r := range ci.reds {
		buf = append(buf, '|')
		buf = ints.AppendInt(buf, int(r.src))
		buf = append(buf, '*')
		buf = ints.AppendInt(buf, int(r.mult))
	}
	buf = append(buf, '|')
	if ci.input.Leader {
		buf = append(buf, 'L')
	}
	buf = ints.AppendInt(buf, int(ci.input.Value))
	in.keyBuf = buf
	if id, ok := in.byKey[string(buf)]; ok {
		return id, nil
	}
	id := int32(len(in.infos))
	ci.fixed = int32(fixedBytes(ci))
	in.infos = append(in.infos, ci)
	in.byKey[string(buf)] = id
	for int(ci.level) >= len(in.levels) {
		in.levels = append(in.levels, nil)
		in.ranked = append(in.ranked, 0)
	}
	in.levels[ci.level] = append(in.levels[ci.level], id)
	in.rank = append(in.rank, -1)
	return id, nil
}

// viewMsg is the full-information engine message: an immutable snapshot
// of the sender's class-ID set plus the sender's current class. The bits
// field carries the exact size of the canonical wire.View encoding of
// that set, computed once at send time from the sender's running view
// sums without rendering the view (view.bits); the engine's SizeOf hook
// reports it for congestion accounting.
type viewMsg struct {
	classes []int32
	self    int32
	bits    int
}

// sizeOfMessage is the engine SizeOf hook: viewMsg sizes are precomputed
// at send time.
func sizeOfMessage(m engine.Message) int {
	if vm, ok := m.(*viewMsg); ok {
		return vm.bits
	}
	return 0
}

// process is one full-information participant.
type process struct {
	itn   *interner
	cfg   Config
	input historytree.Input
	// check, when non-nil, sees every message before it is sent; an error
	// fails the process. Tests use it to compare sizes with the oracle.
	check func(*interner, *viewMsg) error

	solveTime  time.Duration
	solveCalls int
}

// run is the process coroutine: per block of T real rounds it broadcasts
// its current view every round, merges everything it hears, then refines
// itself into a new class from the block's delivery multiset and checks
// its mode's decision rule.
func (p *process) run(tr *engine.Transport) (any, error) {
	T := p.cfg.blockT()
	self, err := p.itn.intern(classInfo{level: 0, parent: -1, input: p.input})
	if err != nil {
		return nil, err
	}
	var v view
	v.add(p.itn, self)
	heard := make(map[int32]int32)

	for {
		for j := 0; j < T; j++ {
			msg := &viewMsg{classes: v.ids[:len(v.ids):len(v.ids)], self: self, bits: v.bits(p.itn, self)}
			if p.check != nil {
				if err := p.check(p.itn, msg); err != nil {
					return nil, err
				}
			}
			msgs, err := tr.SendAndReceive(msg)
			if err != nil {
				return nil, err
			}
			for _, raw := range msgs {
				m, ok := raw.(*viewMsg)
				if !ok {
					return nil, fmt.Errorf("linear: unexpected message %T", raw)
				}
				for _, id := range m.classes {
					if !v.holds(id) { // inlined: most IDs are known
						v.add(p.itn, id)
					}
				}
				heard[m.self]++
			}
		}
		level := int32(tr.Round() / T)
		reds := make([]redRef, 0, len(heard))
		for src, mult := range heard {
			reds = append(reds, redRef{src: src, mult: mult})
		}
		sort.Slice(reds, func(i, j int) bool { return reds[i].src < reds[j].src })
		clear(heard)
		self, err = p.itn.intern(classInfo{level: level, parent: self, reds: reds})
		if err != nil {
			return nil, err
		}
		v.add(p.itn, self)

		depth := int(level)
		if p.cfg.MaxLevels > 0 && depth > p.cfg.MaxLevels {
			return nil, fmt.Errorf("linear: view reached %d levels without a decision (MaxLevels %d)",
				depth, p.cfg.MaxLevels)
		}
		oc, err := p.decide(depth, v.levels, tr)
		if err != nil {
			return nil, err
		}
		if oc != nil {
			return oc, nil
		}
	}
}

// decide applies the mode's decision rule at the current block depth and
// returns a non-nil Outcome once the process can output.
func (p *process) decide(depth int, levels [][]int32, tr *engine.Transport) (*core.Outcome, error) {
	T := p.cfg.blockT()
	switch p.cfg.Mode {
	case core.ModeLeader:
		if !p.input.Leader {
			return nil, nil
		}
		tree, err := p.materialize(levels)
		if err != nil {
			return nil, err
		}
		// Scan completeness candidates from the shallowest up: the first
		// prefix that resolves the system has maximum slack, i.e. is the
		// most likely to be genuinely complete. If the depth condition
		// fails, wait for more blocks instead of trusting deeper (less
		// settled) prefixes.
		limit := chainComplete(tree, depth)
		for c := 0; c <= limit; c++ {
			res, err := p.countAt(tree, c)
			if err != nil {
				// Levels wrongly assumed complete; not settled yet.
				break
			}
			if !res.Known {
				continue
			}
			if depth >= c+res.N {
				return &core.Outcome{
					N: res.N, Multiset: res.Multiset, VHT: tree,
					Levels: depth, FinalRound: tr.Round(),
					Solver: historytree.SolverStats{Calls: p.solveCalls, SolveTime: p.solveTime},
				}, nil
			}
			break
		}
		return nil, nil
	case core.ModeLeaderless:
		// Only prefixes a full diameter bound behind the frontier are
		// provably complete AND provably present in every process's view,
		// so scanning exactly those keeps all processes in lockstep: they
		// resolve the same c at the same block and output together.
		lag := (p.cfg.DiamBound + T - 1) / T
		if depth < lag {
			return nil, nil
		}
		tree, err := p.materialize(levels)
		if err != nil {
			return nil, err
		}
		limit := depth - lag
		if cc := chainComplete(tree, limit); cc < limit {
			limit = cc
		}
		for c := 0; c <= limit; c++ {
			res, err := p.frequenciesAt(tree, c)
			if err != nil {
				break
			}
			if !res.Known {
				continue
			}
			return &core.Outcome{
				Frequencies: &res, VHT: tree,
				Levels: depth, FinalRound: tr.Round(), FinalDiamEstimate: p.cfg.DiamBound,
				Solver: historytree.SolverStats{Calls: p.solveCalls, SolveTime: p.solveTime},
			}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("linear: unknown mode %d", p.cfg.Mode)
}

// countAt runs the counting solver with timing accounted to the process.
func (p *process) countAt(tree *historytree.Tree, c int) (historytree.CountResult, error) {
	start := time.Now()
	res, err := historytree.CountModular(tree, c)
	p.solveTime += time.Since(start)
	p.solveCalls++
	return res, err
}

// frequenciesAt runs the frequency solver with timing accounted to the
// process.
func (p *process) frequenciesAt(tree *historytree.Tree, c int) (historytree.FrequencyResult, error) {
	start := time.Now()
	res, err := historytree.FrequenciesModular(tree, c)
	p.solveTime += time.Since(start)
	p.solveCalls++
	return res, err
}

// chainComplete returns the deepest candidate c ≤ depth such that every
// node at levels 0..c-1 has at least one child in the view — a necessary
// condition for levels 0..c to be complete (every true class is refined
// by its members every block), checked before the solver runs so
// structurally incomplete prefixes are never assumed complete.
func chainComplete(t *historytree.Tree, depth int) int {
	for l := 0; l < depth; l++ {
		for _, v := range t.Level(l) {
			if len(v.Children) == 0 {
				return l
			}
		}
	}
	return depth
}

// materialize builds a historytree.Tree from a view's per-level class
// IDs, level by level so that parents precede children, and by ID within
// a level. Global class IDs become node IDs; views are closed under
// parents and red sources by construction (whole views are merged), so
// the lookups cannot miss.
func (p *process) materialize(levels [][]int32) (*historytree.Tree, error) {
	t := historytree.New()
	for _, level := range levels {
		for _, id := range slices.Sorted(slices.Values(level)) {
			ci := p.itn.infos[id]
			parent := t.Root()
			if ci.parent >= 0 {
				parent = t.NodeByID(int(ci.parent))
				if parent == nil {
					return nil, fmt.Errorf("linear: view not closed under parents (class %d)", id)
				}
			}
			node, err := t.AddChild(int(id), parent, ci.input)
			if err != nil {
				return nil, err
			}
			for _, r := range ci.reds {
				src := t.NodeByID(int(r.src))
				if src == nil {
					return nil, fmt.Errorf("linear: view not closed under red sources (class %d)", id)
				}
				if err := t.AddRed(node, src, int(r.mult)); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}
