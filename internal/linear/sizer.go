package linear

import (
	"cmp"
	"math/bits"
	"slices"

	"anondyn/internal/historytree"
)

// This file keeps a process's view and sizes messages exactly as their
// canonical View encoding (view_test.go) without rendering it: rendering
// and sorting the whole view on every send would dominate the run. The
// oracle tests check every message against View.SizeBits.

// view is one process's class set with the running sums its message size
// is computed from and the per-level bookkeeping its decisions read.
// Every class at level k+1 has its parent at level k, so
// len(levels[k+1]) counts the parent references into level k.
type view struct {
	have   classSet  // every class v holds; a message carries a snapshot
	levels [][]int32 // the class IDs at each level, in arrival order
	n      int       // the number of classes
	fixed  int       // Σ position-independent bytes of the classes
	reds   []int     // reds[k]: red references into level k
	pos    []int32   // scratch of positions

	// The decision bookkeeping (process.decide): the classes that have a
	// child in v, their count per level, and the dirty watermark of the
	// process's memo: its answers at candidates below dirty are current.
	// The answer at c reads levels 0..c, so add lowers dirty to the level
	// of every class it adds; a candidate scan raises it past the
	// candidates it visited.
	parents  classSet
	parented []int
	dirty    int
}

// A classSet holds class IDs as bits: bit id%64 of word id/64.
type classSet []uint64

// holds reports whether s holds class id.
func (s classSet) holds(id int32) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// insert adds class id to s, growing it as needed.
func (s *classSet) insert(id int32) {
	if w := int(id>>6) + 1; w > len(*s) {
		*s = append(*s, make([]uint64, w-len(*s))...)
	}
	(*s)[id>>6] |= 1 << (id & 63)
}

// add inserts class id into v unless v already holds it.
func (v *view) add(in *interner, id int32) {
	if v.have.holds(id) {
		return
	}
	v.have.insert(id)
	v.n++
	ci := &in.infos[id]
	for int(ci.level) >= len(v.levels) {
		v.levels = append(v.levels, nil)
		v.reds = append(v.reds, 0)
		v.parented = append(v.parented, 0)
	}
	v.levels[ci.level] = append(v.levels[ci.level], id)
	v.fixed += int(ci.fixed)
	if ci.level > 0 {
		v.reds[ci.level-1] += len(ci.reds)
		if !v.parents.holds(ci.parent) {
			v.parents.insert(ci.parent)
			v.parented[ci.level-1]++
		}
	}
	v.dirty = min(v.dirty, int(ci.level))
}

// merge adds every class of set that v lacks: a word at a time, so a
// delivery costs one word per 64 classes plus the classes it brings.
func (v *view) merge(in *interner, set classSet) {
	for w, word := range set {
		if w < len(v.have) {
			word &^= v.have[w]
		}
		for ; word != 0; word &= word - 1 {
			v.add(in, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
}

// complete returns the deepest candidate c ≤ depth such that every class
// of v at levels 0..c-1 has a child in v — a necessary condition for
// levels 0..c to be complete (every true class is refined by its members
// every block), checked before the solver runs so structurally
// incomplete prefixes are never assumed complete. A class has a child in
// v exactly when a class of v one level deeper names it as parent.
func (v *view) complete(depth int) int {
	for l := 0; l < depth; l++ {
		if v.parented[l] < len(v.levels[l]) {
			return l
		}
	}
	return depth
}

// bits returns the size in bits of the canonical View encoding of v
// with self as the sender's class.
//
// A class's position is its level's offset in v plus the number of v's
// classes at that level ranked below it (rankLevel). A uvarint's length
// changes only at 128, 16384 and so on, so references into a level whose
// positions lie inside one length band cost count × length; only a level
// that a band edge falls in needs per-reference positions.
func (v *view) bits(in *interner, self int32) int {
	b := uvarintLen(v.n) + v.fixed
	selfLevel := int(in.infos[self].level)
	off := 0
	for k, ids := range v.levels {
		c := len(ids)
		if k+1 < len(v.levels) {
			// Parent references encode off+1 … off+c, red references
			// off … off+c-1.
			if l := uvarintLen(off); l == uvarintLen(off+c) {
				b += (len(v.levels[k+1]) + v.reds[k]) * l
			} else {
				b += v.refBytes(in, k, off)
			}
		}
		if k == selfLevel {
			if l := uvarintLen(off); l == uvarintLen(off+c-1) {
				b += l
			} else {
				pos := v.positions(in, k, off) // ranks level k first
				b += uvarintLen(int(pos[in.rank[self]]))
			}
		}
		off += c
	}
	return 8 * b
}

// refBytes is the exact size of the parent and red references from v's
// level-k+1 classes into its level k, which starts at position off.
func (v *view) refBytes(in *interner, k, off int) int {
	pos := v.positions(in, k, off)
	b := 0
	for _, id := range v.levels[k+1] {
		ci := &in.infos[id]
		b += uvarintLen(int(pos[in.rank[ci.parent]]) + 1)
		for _, r := range ci.reds {
			b += uvarintLen(int(pos[in.rank[r.src]]))
		}
	}
	return b
}

// positions ranks level k and returns, indexed by rank, the canonical
// position of each of v's level-k classes, the first of which sits at
// off. Entries of classes outside v are meaningless. The slice is v's
// scratch, valid until the next call.
func (v *view) positions(in *interner, k, off int) []int32 {
	in.rankLevel(k)
	n := len(in.levels[k])
	pos := slices.Grow(v.pos[:0], n)[:n]
	for r := range pos {
		pos[r] = -1
	}
	for _, id := range v.levels[k] {
		pos[in.rank[id]] = 0
	}
	p := int32(off)
	for r, mark := range pos {
		if mark == 0 {
			pos[r] = p
			p++
		}
	}
	v.pos = pos
	return pos
}

// rankLevel brings the canonical ranks of level k up to date. Level-0
// classes are ordered by input, the leader first and then by value;
// deeper classes by their parent's rank, then by their reds as (source
// rank, multiplicity) pairs in source-rank order. Parents and red sources
// sit one level up (intern checks it), so by induction this order never
// depends on which other classes a view holds: within a level, every
// view's canonical order is the restriction of this one run-wide order.
//
// A level is re-ranked only when it has gained classes. Appending classes
// to the level above keeps its existing classes in the same relative
// order, and the classes a class references were interned before it, so
// a level's ranks stay a valid order until the level itself grows.
func (in *interner) rankLevel(k int) {
	ids := in.levels[k]
	if in.ranked[k] == len(ids) {
		return
	}
	if k > 0 {
		in.rankLevel(k - 1)
	}
	keys := make([]rankKey, len(ids))
	for i, id := range ids {
		ci := &in.infos[id]
		key := rankKey{id: id, input: ci.input, reds: make([]redRef, len(ci.reds))}
		if k > 0 {
			key.parent = in.rank[ci.parent]
		}
		for j, r := range ci.reds {
			key.reds[j] = redRef{src: in.rank[r.src], mult: r.mult}
		}
		slices.SortFunc(key.reds, bySrc)
		keys[i] = key
	}
	slices.SortFunc(keys, cmpRankKey)
	for r, key := range keys {
		ids[r] = key.id
		in.rank[key.id] = int32(r)
	}
	in.ranked[k] = len(ids)
}

// rankKey is a class's canonical sort key: its input, its parent's rank
// and its reds with sources replaced by their ranks.
type rankKey struct {
	id, parent int32
	input      historytree.Input
	reds       []redRef
}

func cmpRankKey(a, b rankKey) int {
	if a.input.Leader != b.input.Leader {
		if a.input.Leader {
			return -1
		}
		return 1
	}
	if c := cmp.Or(cmp.Compare(a.input.Value, b.input.Value), cmp.Compare(a.parent, b.parent)); c != 0 {
		return c
	}
	for i := 0; i < len(a.reds) && i < len(b.reds); i++ {
		if c := cmp.Or(cmp.Compare(a.reds[i].src, b.reds[i].src), cmp.Compare(a.reds[i].mult, b.reds[i].mult)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.reds), len(b.reds))
}

// fixedBytes is the part of a class's canonical encoding that does not
// depend on positions: its level, red count and multiplicities and, for
// a level-0 class, its empty parent field, input flag and input value.
func fixedBytes(ci classInfo) int {
	b := uvarintLen(int(ci.level)) + uvarintLen(len(ci.reds))
	for _, r := range ci.reds {
		b += uvarintLen(int(r.mult))
	}
	if ci.level == 0 {
		v := ci.input.Value
		b += 2 + uvarintLen64(uint64(v)<<1^uint64(v>>63))
	}
	return b
}

// uvarintLen is the length in bytes of x's minimal uvarint encoding.
func uvarintLen(x int) int { return uvarintLen64(uint64(x)) }

func uvarintLen64(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
