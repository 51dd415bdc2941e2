package historytree_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"anondyn/internal/dynnet"
	. "anondyn/internal/historytree"
	"anondyn/internal/oracle"
)

// This file pins the arena/interning rewrite of the history-tree layer
// against the original pointer/map/string implementation: refCanonicalForm
// and refRefine are verbatim ports of the seed's CanonicalForm and refine
// (maps, fmt.Sprintf signatures, strings.Builder), kept here as executable
// references. CanonicalForm's output is a public identity check, so the
// property tests require byte equality, not mere isomorphism.

// refCanonicalForm is the seed's map/string-based CanonicalForm.
func refCanonicalForm(t *Tree) string {
	colors := map[*Node]string{t.Root(): "r"}
	var b strings.Builder
	for l := 0; l <= t.Depth(); l++ {
		level := t.Level(l)
		names := make(map[*Node]string, len(level))
		for _, v := range level {
			if l == 0 {
				names[v] = fmt.Sprintf("(%s|in=%s)", colors[v.Parent], v.Input)
				continue
			}
			reds := make([]string, 0, len(v.Red))
			for _, e := range v.Red {
				reds = append(reds, fmt.Sprintf("%s*%d", colors[e.Src], e.Mult))
			}
			sort.Strings(reds)
			names[v] = fmt.Sprintf("(%s|%s)", colors[v.Parent], strings.Join(reds, ","))
		}

		sorted := make([]string, 0, len(level))
		for _, v := range level {
			sorted = append(sorted, names[v])
		}
		sort.Strings(sorted)
		fmt.Fprintf(&b, "L%d:%s\n", l, strings.Join(sorted, " "))

		token := make(map[string]string, len(sorted))
		rank := 0
		for _, name := range sorted {
			if _, ok := token[name]; !ok {
				token[name] = fmt.Sprintf("c%d.%d", l, rank)
				rank++
			}
		}
		for _, v := range level {
			colors[v] = token[names[v]]
		}
	}
	return b.String()
}

// refSignature is the seed's string serialization of an observation map.
func refSignature(obs map[int]int) string {
	keys := slices.Sorted(maps.Keys(obs))
	b := make([]byte, 0, len(keys)*8)
	for _, k := range keys {
		b = append(b, fmt.Sprintf("%d:%d;", k, obs[k])...)
	}
	return string(b)
}

// refRefine is the seed's refine: fresh observation maps per process per
// round, grouping keyed by (parent ID, string signature).
func refRefine(t *Tree, g *dynnet.Multigraph, cur []*Node, nextID *int, card map[int]int) ([]*Node, error) {
	n := len(cur)
	obs := make([]map[int]int, n)
	for p := 0; p < n; p++ {
		obs[p] = make(map[int]int)
	}
	for _, l := range g.CanonicalLinks() {
		if l.U == l.V {
			obs[l.U][cur[l.U].ID] += l.Mult
			continue
		}
		obs[l.U][cur[l.V].ID] += l.Mult
		obs[l.V][cur[l.U].ID] += l.Mult
	}

	type key struct {
		parent int
		sig    string
	}
	groups := make(map[key]*Node)
	next := make([]*Node, n)
	for p := 0; p < n; p++ {
		k := key{parent: cur[p].ID, sig: refSignature(obs[p])}
		node, ok := groups[k]
		if !ok {
			var err error
			node, err = t.AddChild(*nextID, cur[p], Input{})
			if err != nil {
				return nil, err
			}
			*nextID++
			for _, srcID := range slices.Sorted(maps.Keys(obs[p])) {
				if err := t.AddRed(node, t.NodeByID(srcID), obs[p][srcID]); err != nil {
					return nil, err
				}
			}
			groups[k] = node
		}
		card[node.ID]++
		next[p] = node
	}
	return next, nil
}

// refBuildTree is the seed's Build reduced to the tree it constructs.
func refBuildTree(s dynnet.Schedule, inputs []Input, rounds int) (*Tree, error) {
	n := s.N()
	t := New()
	nextID := 0
	card := map[int]int{RootID: n}
	level0 := make(map[Input]*Node)
	cur := make([]*Node, n)
	for p := 0; p < n; p++ {
		node, ok := level0[inputs[p]]
		if !ok {
			var err error
			node, err = t.AddChild(nextID, t.Root(), inputs[p])
			if err != nil {
				return nil, err
			}
			nextID++
			level0[inputs[p]] = node
		}
		card[node.ID]++
		cur[p] = node
	}
	for round := 1; round <= rounds; round++ {
		next, err := refRefine(t, s.Graph(round), cur, &nextID, card)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return t, nil
}

// quickParams decodes fuzz inputs into a schedule/inputs/rounds triple with
// bounded sizes.
func quickParams(nRaw, roundsRaw uint8, pRaw uint8, seed int64) (dynnet.Schedule, []Input, int) {
	n := 1 + int(nRaw%10)
	rounds := int(roundsRaw % 13)
	p := 0.1 + 0.8*float64(pRaw)/255
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{Leader: rng.Intn(4) == 0, Value: int64(rng.Intn(3))}
	}
	return dynnet.NewRandomConnected(n, p, seed), inputs, rounds
}

// TestQuickArenaBuildMatchesReference drives the arena-backed Build and the
// seed reference over random schedules and requires byte-identical
// CanonicalForm strings (under both the new and the reference form
// computation) and clean Validate on both trees.
func TestQuickArenaBuildMatchesReference(t *testing.T) {
	property := func(nRaw, roundsRaw, pRaw uint8, seed int64) bool {
		s, inputs, rounds := quickParams(nRaw, roundsRaw, pRaw, seed)
		run, err := Build(s, inputs, rounds)
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		ref, err := refBuildTree(s, inputs, rounds)
		if err != nil {
			t.Logf("refBuildTree: %v", err)
			return false
		}
		if err := run.Tree.Validate(); err != nil {
			t.Logf("arena tree Validate: %v", err)
			return false
		}
		if err := ref.Validate(); err != nil {
			t.Logf("reference tree Validate: %v", err)
			return false
		}
		got, want := oracle.CanonicalForm(run.Tree), oracle.CanonicalForm(ref)
		if got != want {
			t.Logf("CanonicalForm mismatch:\n got %q\nwant %q", got, want)
			return false
		}
		// The emitted format is a public identity check: the integer-token
		// rewrite must reproduce the seed's string byte for byte.
		if refForm := refCanonicalForm(run.Tree); got != refForm {
			t.Logf("CanonicalForm format drift:\n got %q\n ref %q", got, refForm)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneAndTruncatePreserveReferenceEquality exercises the arena tree's
// structural operations against the reference form after mutation.
func TestCloneAndTruncatePreserveReferenceEquality(t *testing.T) {
	s := dynnet.NewRandomConnected(6, 0.4, 11)
	inputs := make([]Input, 6)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 9)
	if err != nil {
		t.Fatal(err)
	}
	clone := run.Tree.Clone()
	if got, want := oracle.CanonicalForm(clone), oracle.CanonicalForm(run.Tree); got != want {
		t.Fatalf("clone form differs:\n got %q\nwant %q", got, want)
	}
	run.Tree.TruncateLevels(5)
	if err := run.Tree.Validate(); err != nil {
		t.Fatalf("Validate after truncate: %v", err)
	}
	truncRef, err := refBuildTree(s, inputs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := oracle.CanonicalForm(run.Tree), oracle.CanonicalForm(truncRef); got != want {
		t.Fatalf("truncated form differs from 4-round reference:\n got %q\nwant %q", got, want)
	}
	if got, want := oracle.CanonicalForm(clone), refCanonicalForm(clone); got != want {
		t.Fatalf("clone form drifts from reference computation:\n got %q\nwant %q", got, want)
	}
}

// TestRunCardMatchesReference cross-checks the cardinalities Build reports
// against an independent count from NodeOf.
func TestRunCardMatchesReference(t *testing.T) {
	s := dynnet.NewRandomConnected(7, 0.35, 3)
	inputs := make([]Input, 7)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	last := run.NodeOf[len(run.NodeOf)-1]
	counts := map[int]int{}
	for _, v := range last {
		counts[v.ID]++
	}
	for id, c := range counts {
		if run.Card[id] != c {
			t.Fatalf("Card[%d] = %d, want %d", id, run.Card[id], c)
		}
	}
	if !reflect.DeepEqual(slices.Sorted(maps.Keys(counts)), func() []int {
		var ids []int
		for _, v := range run.Tree.Level(run.Rounds) {
			ids = append(ids, v.ID)
		}
		sort.Ints(ids)
		return ids
	}()) {
		t.Fatalf("deepest level IDs do not match NodeOf occupancy")
	}
}

func TestCanonicalFormAllocs(t *testing.T) {
	s := dynnet.NewRandomConnected(8, 0.4, 5)
	inputs := make([]Input, 8)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 12)
	if err != nil {
		t.Fatal(err)
	}
	form := oracle.CanonicalForm(run.Tree)
	allocs := testing.AllocsPerRun(32, func() {
		if got := oracle.CanonicalForm(run.Tree); got != form {
			t.Fatalf("unstable canonical form")
		}
	})
	// The integer-token rewrite allocates the color index, the growing
	// output/name buffers, and per-level token slices — all O(levels +
	// log growth), independent of how many node names are concatenated.
	// The seed's strings.Builder construction allocated several strings
	// per node (hundreds on this tree).
	if allocs > 64 {
		t.Fatalf("CanonicalForm allocated %.1f objects, want ≤ 64", allocs)
	}
}
