package linear

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/historytree"
)

// buildView is the sizer's oracle: it renders a class-ID set as a
// canonical View: levels ascending, level-0 classes ordered by
// input, deeper classes by (parent position, red list); positions are the
// resulting indices. Hash-consing makes the within-level keys unique, so
// the order — and therefore the encoding and its size — depends only on
// the abstract view, not on interner ID assignment order.
func buildView(infos []classInfo, ids []int32, self int32) *View {
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
	out := &View{Classes: make([]ViewClass, 0, len(ids))}
	for level, bucket := range buckets {
		cand := make([]ViewClass, len(bucket))
		for i, id := range bucket {
			ci := infos[id]
			vc := ViewClass{Level: int32(level), Parent: -1}
			if ci.parent >= 0 {
				vc.Parent = pos[ci.parent]
			} else {
				vc.Leader = ci.input.Leader
				vc.Value = ci.input.Value
			}
			if len(ci.reds) > 0 {
				vc.Reds = make([]ViewRed, len(ci.reds))
				for j, r := range ci.reds {
					vc.Reds[j] = ViewRed{Src: pos[r.src], Mult: r.mult}
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
func lessViewClass(a, b ViewClass) bool {
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

// oracleBits is the size the oracle gives a message.
func oracleBits(in *interner, m *viewMsg) int {
	return buildView(in.infos, members(m.set), m.self).SizeBits()
}

// members expands a class set into its class IDs, ascending: the class
// list buildView renders.
func members(s classSet) []int32 {
	var ids []int32
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return ids
}

// freshScan is the decision oracle: the candidate scan as decide ran it
// before answers were memoized, on a tree materialized from the view. It
// recomputes the completeness bound with chainComplete and re-solves
// every candidate the scan visited from scratch, and fails unless the
// bound and each memoized answer match and the scan stopped where the
// fresh answers say it should.
func freshScan(p *process, v *view, bound, last int) error {
	tree, err := p.materialize(v.levels)
	if err != nil {
		return err
	}
	depth := len(v.levels) - 1
	limit := depth
	if p.cfg.Mode == core.ModeLeaderless {
		T := p.cfg.blockT()
		limit -= (p.cfg.DiamBound + T - 1) / T
	}
	if want := chainComplete(tree, limit); bound != want {
		return fmt.Errorf("linear: a depth-%d scan bounded at candidate %d, chainComplete at %d", depth, bound, want)
	}
	for c := 0; c <= last; c++ {
		var fresh answer
		if p.cfg.Mode == core.ModeLeader {
			fresh.count, fresh.err = historytree.CountModular(tree, c)
		} else {
			fresh.freq, fresh.err = historytree.FrequenciesModular(tree, c)
		}
		if err := sameAnswer(&p.memo[c], &fresh); err != nil {
			return fmt.Errorf("linear: depth %d, candidate %d: %w", depth, c, err)
		}
		stops := fresh.err != nil || fresh.resolved()
		if c < last && stops {
			return fmt.Errorf("linear: a depth-%d scan passed candidate %d, which settles it", depth, c)
		}
		if c == last && !stops && last < bound {
			return fmt.Errorf("linear: a depth-%d scan stopped at unsettled candidate %d of %d", depth, c, bound)
		}
	}
	return nil
}

// sameAnswer compares a memoized answer with a fresh one.
func sameAnswer(memo, fresh *answer) error {
	switch {
	case (memo.err == nil) != (fresh.err == nil):
		return fmt.Errorf("memoized error %v, fresh error %v", memo.err, fresh.err)
	case memo.count.Known != fresh.count.Known || memo.count.N != fresh.count.N ||
		!maps.Equal(memo.count.Multiset, fresh.count.Multiset):
		return fmt.Errorf("memoized count %+v, fresh %+v", memo.count, fresh.count)
	case memo.freq.Known != fresh.freq.Known || memo.freq.MinSize != fresh.freq.MinSize ||
		!maps.Equal(memo.freq.Shares, fresh.freq.Shares):
		return fmt.Errorf("memoized frequencies %+v, fresh %+v", memo.freq, fresh.freq)
	}
	return nil
}

// chainComplete returns the deepest candidate c ≤ depth such that every
// node at levels 0..c-1 of t has at least one child: the completeness
// bound view.complete keeps from the view's per-level lists.
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

// synthClass interns a new random class at level k: an input at level
// 0, otherwise a parent and 1–3 red sources drawn from pool, one level up.
// Multiplicities reach 300 and input values ±5000, so the fixed fields
// take one or two bytes. It retries until the class is new.
func synthClass(t *testing.T, rng *rand.Rand, in *interner, k int, pool []int32) int32 {
	t.Helper()
	for {
		ci := classInfo{level: int32(k), parent: -1}
		if k == 0 {
			ci.input = historytree.Input{Leader: rng.IntN(16) == 0, Value: rng.Int64N(10001) - 5000}
		} else {
			ci.parent = pool[rng.IntN(len(pool))]
			for range 1 + rng.IntN(3) {
				src := pool[rng.IntN(len(pool))]
				if !slices.ContainsFunc(ci.reds, func(r redRef) bool { return r.src == src }) {
					ci.reds = append(ci.reds, redRef{src: src, mult: 1 + rng.Int32N(300)})
				}
			}
			sort.Slice(ci.reds, func(a, b int) bool { return ci.reds[a].src < ci.reds[b].src })
		}
		fresh := int32(len(in.infos))
		id, err := in.intern(ci)
		if err != nil {
			t.Fatal(err)
		}
		if id == fresh {
			return id
		}
	}
}

// layered interns a synthetic view with widths[k] classes at level k,
// closed under parents and red sources, plus up to `outside` classes per
// level that the view does not hold, so positions inside the view differ
// from run-wide ranks. Classes are interned in shuffled order. It returns
// the interner and the view's class IDs per level.
func layered(t *testing.T, rng *rand.Rand, widths []int, outside int) (*interner, [][]int32) {
	t.Helper()
	in := newInterner()
	mine := make([][]int32, len(widths))
	for k, w := range widths {
		inView := make([]bool, w+rng.IntN(outside+1))
		for i := range w {
			inView[i] = true
		}
		rng.Shuffle(len(inView), func(i, j int) { inView[i], inView[j] = inView[j], inView[i] })
		for _, mineToo := range inView {
			var pool []int32
			if k > 0 {
				pool = in.levels[k-1]
				if mineToo {
					pool = mine[k-1]
				}
			}
			if id := synthClass(t, rng, in, k, pool); mineToo {
				mine[k] = append(mine[k], id)
			}
		}
	}
	return in, mine
}

// split returns level widths of about w classes each that sum to total.
func split(rng *rand.Rand, total, w int) []int {
	var widths []int
	for total > 0 {
		x := min(total, 1+rng.IntN(2*w))
		widths = append(widths, x)
		total -= x
	}
	return widths
}

// crossings reports which kinds of reference in v take both sides of
// edge within one level: parent references (position + 1), red
// references, and the sender's own position, whose level straddles edge.
func crossings(v *View, edge int) (parent, red, self bool) {
	type span struct{ lo, hi int }
	var parents, reds, levels []span
	widen := func(s []span, k, x int) []span {
		for len(s) <= k {
			s = append(s, span{lo: 1 << 30, hi: -1})
		}
		s[k].lo, s[k].hi = min(s[k].lo, x), max(s[k].hi, x)
		return s
	}
	for i, c := range v.Classes {
		levels = widen(levels, int(c.Level), i)
		if c.Level > 0 {
			parents = widen(parents, int(c.Level)-1, int(c.Parent)+1)
			for _, r := range c.Reds {
				reds = widen(reds, int(c.Level)-1, int(r.Src))
			}
		}
	}
	across := func(s []span) bool {
		for _, x := range s {
			if x.lo < edge && edge <= x.hi {
				return true
			}
		}
		return false
	}
	top := levels[v.Classes[v.Self].Level]
	return across(parents), across(reds), top.lo < edge && edge <= top.hi
}

// TestLinearViewBitsBandEdges checks the sizer against the buildView
// oracle on synthetic views whose positions cross the uvarint band edges
// 127/128 and 16383/16384. Three shapes: a level boundary at edge-2 …
// edge+2, so that parent references alone, red references alone, or both
// cross inside a level; a top level that straddles the edge, with every
// one of its classes as the sender; and a view whose top two levels grow
// one class at a time, in and out of the view, sized after every step, so
// ranks taken while a level was partial must be redone. Classes outside
// each view shift its positions away from the run-wide ranks. The test
// fails unless parent references, red references and the sender's
// position each crossed both edges. (A real run whose views pass 16384
// classes needs n ≈ 130 and takes minutes with the oracle on.)
func TestLinearViewBitsBandEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(2204, 2128))
	for _, edge := range []int{128, 16384} {
		w := max(2, edge/160) // about 160 levels at the upper edge
		var parent, red, self bool
		compare := func(name string, in *interner, v *view, s int32) {
			t.Helper()
			oracle := buildView(in.infos, members(v.have), s)
			if got, want := v.bits(in, s), oracle.SizeBits(); got != want {
				t.Fatalf("edge %d, %s: a %d-class view sized %d bits, oracle %d", edge, name, v.n, got, want)
			}
			p, r, sf := crossings(oracle, edge)
			parent, red, self = parent || p, red || r, self || sf
		}
		// viewOf adds the classes of mine to a view in shuffled order.
		viewOf := func(in *interner, mine [][]int32) *view {
			var ids []int32
			for _, level := range mine {
				ids = append(ids, level...)
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			v := &view{}
			for _, id := range ids {
				v.add(in, id)
			}
			return v
		}
		fixed := func(name string, widths []int) {
			in, mine := layered(t, rng, widths, w/2)
			v := viewOf(in, mine)
			for _, s := range mine[len(mine)-1] {
				compare(name, in, v, s)
			}
		}
		for d := -2; d <= 2; d++ {
			fixed(fmt.Sprintf("boundary at %d", edge+d), append(split(rng, edge+d, w), 1+rng.IntN(w), 1+rng.IntN(4)))
		}
		for _, below := range []int{1, 3, 5} {
			fixed(fmt.Sprintf("top level from %d", edge-below), append(split(rng, edge-below, w), 6))
		}

		in, mine := layered(t, rng, append(split(rng, edge-4, w), 1), w/2)
		v := viewOf(in, mine)
		top := len(mine)
		mine = append(mine, nil)
		for step := range 24 {
			k := top - rng.IntN(3)/2 // the top level twice as often
			mineToo := rng.IntN(3) > 0
			pool := in.levels[k-1]
			if mineToo {
				pool = mine[k-1]
			}
			if id := synthClass(t, rng, in, k, pool); mineToo {
				mine[k] = append(mine[k], id)
				v.add(in, id)
			}
			if len(mine[top]) > 0 {
				compare(fmt.Sprintf("growth step %d", step), in, v, mine[top][rng.IntN(len(mine[top]))])
			}
		}
		if !parent || !red || !self {
			t.Fatalf("edge %d: crossed with parent refs %v, red refs %v, self %v; want all", edge, parent, red, self)
		}
	}
}

// TestLinearInternRejectsLevelSkip pins the lock-step check: a class
// whose red source is not exactly one level up fails to intern.
func TestLinearInternRejectsLevelSkip(t *testing.T) {
	in := newInterner()
	a, _ := in.intern(classInfo{level: 0, parent: -1})
	b, _ := in.intern(classInfo{level: 1, parent: a, reds: []redRef{{src: a, mult: 1}}})
	if _, err := in.intern(classInfo{level: 2, parent: b, reds: []redRef{{src: a, mult: 1}}}); err == nil {
		t.Fatal("interned a class that heard a class two levels up")
	}
	if _, err := in.intern(classInfo{level: 2, parent: a}); err == nil {
		t.Fatal("interned a class whose parent is two levels up")
	}
}
