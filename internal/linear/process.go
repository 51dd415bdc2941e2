package linear

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/ints"
	"anondyn/internal/wire"
)

// classInfo describes one hash-consed history-tree class: its level, its
// parent class, the multiset of classes it heard from during its block
// (with multiplicities) and, for level-0 classes, the input.
type classInfo struct {
	level  int32
	parent int32 // class ID of the parent; -1 for level-0 classes
	reds   []redRef
	input  historytree.Input
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
// depend on the numeric IDs; the canonical view serialization orders
// classes by content instead (see buildView).
type interner struct {
	mu     sync.Mutex
	byKey  map[string]int32
	infos  []classInfo
	keyBuf []byte // mu-guarded key-rendering scratch
}

func newInterner() *interner {
	return &interner{byKey: make(map[string]int32)}
}

// intern returns the class ID for the given description, registering it
// if new and taking ownership of the reds slice. reds must be in
// canonical (sorted by src) order.
func (in *interner) intern(ci classInfo) int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Injective byte rendering ('|' and '*' never occur inside a decimal
	// field), built in a lock-guarded scratch buffer so lookups of known
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
		return id
	}
	id := int32(len(in.infos))
	in.infos = append(in.infos, ci)
	in.byKey[string(buf)] = id
	return id
}

// snapshot returns a read-only prefix of the registered classInfos.
// Entries are never mutated after registration and appends never write
// below the returned length, so the snapshot may be read without the
// lock.
func (in *interner) snapshot() []classInfo {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.infos[:len(in.infos):len(in.infos)]
}

// viewMsg is the full-information engine message: an immutable snapshot
// of the sender's class-ID set plus the sender's current class. The bits
// field carries the canonical wire size (computed once at send time via
// wire.SizeOf over the class-ordered wire.View), which the engine's
// SizeOf hook reports for congestion accounting.
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

// idSet is a growable bitset over dense class IDs.
type idSet struct{ bits []uint64 }

func (s *idSet) has(id int32) bool {
	w := int(id >> 6)
	return w < len(s.bits) && s.bits[w]>>(uint(id)&63)&1 == 1
}

func (s *idSet) add(id int32) {
	w := int(id >> 6)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (uint(id) & 63)
}

// process is one full-information participant.
type process struct {
	itn   *interner
	cfg   Config
	input historytree.Input

	solveTime  time.Duration
	solveCalls int
}

// run is the process coroutine: per block of T real rounds it broadcasts
// its current view every round, merges everything it hears, then refines
// itself into a new class from the block's delivery multiset and checks
// its mode's decision rule.
func (p *process) run(tr *engine.Transport) (any, error) {
	T := p.cfg.blockT()
	self := p.itn.intern(classInfo{level: 0, parent: -1, input: p.input})
	classes := []int32{self}
	var have idSet
	have.add(self)
	heard := make(map[int32]int32)

	for {
		for j := 0; j < T; j++ {
			msg := &viewMsg{classes: classes[:len(classes):len(classes)], self: self}
			msg.bits = wire.SizeOf(buildView(p.itn.snapshot(), msg.classes, msg.self))
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
					if !have.has(id) {
						have.add(id)
						classes = append(classes, id)
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
		self = p.itn.intern(classInfo{level: level, parent: self, reds: reds})
		if !have.has(self) {
			have.add(self)
			classes = append(classes, self)
		}

		depth := int(level)
		if p.cfg.MaxLevels > 0 && depth > p.cfg.MaxLevels {
			return nil, fmt.Errorf("linear: view reached %d levels without a decision (MaxLevels %d)",
				depth, p.cfg.MaxLevels)
		}
		oc, err := p.decide(depth, classes, tr)
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
func (p *process) decide(depth int, classes []int32, tr *engine.Transport) (*core.Outcome, error) {
	T := p.cfg.blockT()
	switch p.cfg.Mode {
	case core.ModeLeader:
		if !p.input.Leader {
			return nil, nil
		}
		tree, err := p.materialize(classes)
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
		tree, err := p.materialize(classes)
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

// materialize builds a historytree.Tree from the class-ID set. Global
// class IDs become node IDs; views are closed under parents and red
// sources by construction (whole views are merged), so the lookups
// cannot miss.
func (p *process) materialize(classes []int32) (*historytree.Tree, error) {
	infos := p.itn.snapshot()
	ids := append([]int32(nil), classes...)
	// Order by level, then ID, so parents precede children.
	sort.Slice(ids, func(i, j int) bool {
		li, lj := infos[ids[i]].level, infos[ids[j]].level
		if li != lj {
			return li < lj
		}
		return ids[i] < ids[j]
	})
	t := historytree.New()
	for _, id := range ids {
		ci := infos[id]
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
	return t, nil
}

// buildView renders a class-ID set as a canonical wire.View: levels
// ascending, level-0 classes ordered by input, deeper classes by
// (parent position, red list); positions are the resulting indices.
// Hash-consing makes the within-level keys unique, so the order — and
// therefore the encoding and its size — depends only on the abstract
// view, not on interner ID assignment order.
func buildView(infos []classInfo, ids []int32, self int32) *wire.View {
	maxLevel := int32(0)
	for _, id := range ids {
		if l := infos[id].level; l > maxLevel {
			maxLevel = l
		}
	}
	buckets := make([][]int32, maxLevel+1)
	for _, id := range ids {
		l := infos[id].level
		buckets[l] = append(buckets[l], id)
	}
	pos := make(map[int32]int32, len(ids))
	out := &wire.View{Classes: make([]wire.ViewClass, 0, len(ids))}
	for level, bucket := range buckets {
		cand := make([]wire.ViewClass, len(bucket))
		for i, id := range bucket {
			ci := infos[id]
			vc := wire.ViewClass{Level: int32(level), Parent: -1}
			if ci.parent >= 0 {
				vc.Parent = pos[ci.parent]
			} else {
				vc.Leader = ci.input.Leader
				vc.Value = ci.input.Value
			}
			if len(ci.reds) > 0 {
				vc.Reds = make([]wire.ViewRed, len(ci.reds))
				for j, r := range ci.reds {
					vc.Reds[j] = wire.ViewRed{Src: pos[r.src], Mult: r.mult}
				}
				sort.Slice(vc.Reds, func(a, b int) bool { return vc.Reds[a].Src < vc.Reds[b].Src })
			}
			cand[i] = vc
		}
		order := make([]int, len(bucket))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return lessViewClass(cand[order[a]], cand[order[b]]) })
		for _, oi := range order {
			pos[bucket[oi]] = int32(len(out.Classes))
			out.Classes = append(out.Classes, cand[oi])
		}
	}
	out.Self = pos[self]
	return out
}

// lessViewClass is the canonical within-level order: by input for level
// 0, by (parent position, red list) for deeper levels. Same-level classes
// never compare equal — the interner guarantees identical content means
// identical ID, and each ID appears once.
func lessViewClass(a, b wire.ViewClass) bool {
	if a.Level == 0 {
		if a.Leader != b.Leader {
			return a.Leader
		}
		return a.Value < b.Value
	}
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	for i := 0; i < len(a.Reds) && i < len(b.Reds); i++ {
		if a.Reds[i].Src != b.Reds[i].Src {
			return a.Reds[i].Src < b.Reds[i].Src
		}
		if a.Reds[i].Mult != b.Reds[i].Mult {
			return a.Reds[i].Mult < b.Reds[i].Mult
		}
	}
	return len(a.Reds) < len(b.Reds)
}
