package linear

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
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
// if new with its own copy of the reds, so callers may build them in
// scratch. reds must be in canonical (sorted by src) order. A deeper
// class's parent and red sources must sit exactly one level up: the
// engine's lock-step refines every process at the same rounds, and the
// canonical ranks rely on it, so intern fails rather than assume it.
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
	buf = strconv.AppendInt(buf, int64(ci.level), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(ci.parent), 10)
	for _, r := range ci.reds {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(r.src), 10)
		buf = append(buf, '*')
		buf = strconv.AppendInt(buf, int64(r.mult), 10)
	}
	buf = append(buf, '|')
	if ci.input.Leader {
		buf = append(buf, 'L')
	}
	buf = strconv.AppendInt(buf, ci.input.Value, 10)
	in.keyBuf = buf
	if id, ok := in.byKey[string(buf)]; ok {
		return id, nil
	}
	id := int32(len(in.infos))
	ci.reds = slices.Clone(ci.reds)
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
// of the sender's class set plus the sender's current class. The bits
// field carries the exact size of the canonical View encoding of
// that set, computed once at send time from the sender's running view
// sums without rendering the view (view.bits); the engine's SizeOf hook
// reports it for congestion accounting.
type viewMsg struct {
	set  classSet
	self int32
	bits int
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
	hooks hooks

	reds []redRef // refinement scratch
	// memo[c] is the last solver answer at candidate c; those below the
	// view's dirty watermark are current.
	memo []answer

	solveTime  time.Duration
	solveCalls int
}

// answer is one solver answer at a completeness candidate: the count in
// leader mode, the frequencies leaderless, or the solver's error.
type answer struct {
	count historytree.CountResult
	freq  historytree.FrequencyResult
	err   error
}

// resolved reports whether the answer settles the candidate scan.
func (a *answer) resolved() bool { return a.count.Known || a.freq.Known }

// bySrc orders reds by source class.
func bySrc(a, b redRef) int { return cmp.Compare(a.src, b.src) }

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
			msg := &viewMsg{set: slices.Clone(v.have), self: self, bits: v.bits(p.itn, self)}
			if p.hooks.send != nil {
				if err := p.hooks.send(p.itn, msg); err != nil {
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
				v.merge(p.itn, m.set)
				heard[m.self]++
			}
		}
		level := int32(tr.Round() / T)
		p.reds = p.reds[:0]
		for src, mult := range heard {
			p.reds = append(p.reds, redRef{src: src, mult: mult})
		}
		slices.SortFunc(p.reds, bySrc)
		clear(heard)
		self, err = p.itn.intern(classInfo{level: level, parent: self, reds: p.reds})
		if err != nil {
			return nil, err
		}
		v.add(p.itn, self)

		depth := int(level)
		if p.cfg.MaxLevels > 0 && depth > p.cfg.MaxLevels {
			return nil, fmt.Errorf("linear: view reached %d levels without a decision (MaxLevels %d)",
				depth, p.cfg.MaxLevels)
		}
		oc, err := p.decide(depth, &v, tr)
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
func (p *process) decide(depth int, v *view, tr *engine.Transport) (*core.Outcome, error) {
	var bound int
	switch p.cfg.Mode {
	case core.ModeLeader:
		if !p.input.Leader {
			return nil, nil
		}
		// Scan completeness candidates from the shallowest up: the first
		// prefix that resolves the system has maximum slack, i.e. is the
		// most likely to be genuinely complete. If the depth condition
		// below fails, wait for more blocks instead of trusting deeper
		// (less settled) prefixes.
		bound = v.complete(depth)
	case core.ModeLeaderless:
		// Only prefixes a full diameter bound behind the frontier are
		// provably complete AND provably present in every process's view,
		// so scanning exactly those keeps all processes in lockstep: they
		// resolve the same c at the same block and output together.
		T := p.cfg.blockT()
		lag := (p.cfg.DiamBound + T - 1) / T
		if depth < lag {
			return nil, nil
		}
		bound = v.complete(depth - lag)
	default:
		return nil, fmt.Errorf("linear: unknown mode %d", p.cfg.Mode)
	}
	c, a, tree, err := p.scan(v, bound)
	if err != nil || a == nil || (p.cfg.Mode == core.ModeLeader && depth < c+a.count.N) {
		return nil, err
	}
	if tree == nil {
		if tree, err = p.materialize(v.levels); err != nil {
			return nil, err
		}
	}
	oc := &core.Outcome{
		VHT: tree, Levels: depth, FinalRound: tr.Round(),
		Solver: historytree.SolverStats{Calls: p.solveCalls, SolveTime: p.solveTime},
	}
	if p.cfg.Mode == core.ModeLeader {
		oc.N, oc.Multiset = a.count.N, a.count.Multiset
	} else {
		freq := a.freq
		oc.Frequencies, oc.FinalDiamEstimate = &freq, p.cfg.DiamBound
	}
	return oc, nil
}

// scan walks the completeness candidates c = 0..bound from the
// shallowest up and returns the first whose answer resolves, or a nil
// answer if none does before one errs (its levels were wrongly assumed
// complete, so deeper ones are not settled either) or the bound ends the
// scan.
//
// The answer at c reads only levels 0..c of the view: the solver sees
// only those levels, and materialize orders each level by class ID, so
// the same class sets give the same tree prefix. A view only grows, so
// an answer memoized below the dirty watermark is the answer a fresh
// solve would give. The view is materialized only on the first miss, and
// that tree is returned (nil when every answer came from the memo).
func (p *process) scan(v *view, bound int) (int, *answer, *historytree.Tree, error) {
	var tree *historytree.Tree
	c := 0
	for ; c <= bound; c++ {
		if c >= v.dirty {
			if tree == nil {
				var err error
				if tree, err = p.materialize(v.levels); err != nil {
					return 0, nil, nil, err
				}
			}
			a := p.solve(tree, c)
			if c < len(p.memo) {
				p.memo[c] = a
			} else {
				p.memo = append(p.memo, a)
			}
		}
		if a := &p.memo[c]; a.err != nil || a.resolved() {
			break
		}
	}
	last := min(c, bound)
	v.dirty = max(v.dirty, last+1)
	if p.hooks.scan != nil {
		if err := p.hooks.scan(p, v, bound, last); err != nil {
			return 0, nil, nil, err
		}
	}
	if c > bound || p.memo[c].err != nil {
		return c, nil, tree, nil
	}
	return c, &p.memo[c], tree, nil
}

// solve runs the mode's from-scratch solver at candidate c, with timing
// accounted to the process.
func (p *process) solve(tree *historytree.Tree, c int) answer {
	start := time.Now()
	var a answer
	if p.cfg.Mode == core.ModeLeader {
		a.count, a.err = historytree.CountModular(tree, c)
	} else {
		a.freq, a.err = historytree.FrequenciesModular(tree, c)
	}
	p.solveTime += time.Since(start)
	p.solveCalls++
	return a
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
