package historytree

import (
	"testing"

	"anondyn/internal/dynnet"
)

// The tests that import internal/oracle are in package historytree_test,
// because internal/oracle imports this package. This file gives them what
// they need of its internals, and holds the helpers they share with the
// tests that stay in this package.

// MaxPackedMult is maxPackedMult, the largest link multiplicity the batched
// refiner packs into 32 bits.
const MaxPackedMult = maxPackedMult

// Clone returns a deep copy of the tree; the copy's nodes are fresh but
// keep their IDs.
func (t *Tree) Clone() *Tree {
	out := New()
	for l := 0; l <= t.Depth(); l++ {
		for _, v := range t.Level(l) {
			parent := out.NodeByID(v.Parent.ID)
			if _, err := out.AddChild(v.ID, parent, v.Input); err != nil {
				// Unreachable on a well-formed tree.
				panic(err)
			}
		}
	}
	for l := 1; l <= t.Depth(); l++ {
		for _, v := range t.Level(l) {
			nv := out.NodeByID(v.ID)
			for _, e := range v.Red {
				if err := out.AddRed(nv, out.NodeByID(e.Src.ID), e.Mult); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

// WitnessBuild is Build driven by the witness refiner.
func WitnessBuild(s dynnet.Schedule, inputs []Input, rounds int) (*Run, error) {
	return buildWith(s, inputs, rounds, newRefiner(s.N()).refine)
}

// LeaderInputs returns n inputs where process 0 is the leader and everyone
// has value 0.
func LeaderInputs(n int) []Input {
	in := make([]Input, n)
	in[0].Leader = true
	return in
}

// BuildTree is a test helper wrapping Build.
func BuildTree(t *testing.T, s dynnet.Schedule, inputs []Input, rounds int) *Run {
	t.Helper()
	run, err := Build(s, inputs, rounds)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := run.Tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return run
}

// SameCount reports whether two count results agree.
func SameCount(a, b CountResult) bool {
	if a.Known != b.Known {
		return false
	}
	if !a.Known {
		return true
	}
	if a.N != b.N || len(a.Multiset) != len(b.Multiset) {
		return false
	}
	for in, c := range a.Multiset {
		if b.Multiset[in] != c {
			return false
		}
	}
	return true
}

// SameFreq reports whether two frequency results agree.
func SameFreq(a, b FrequencyResult) bool {
	if a.Known != b.Known {
		return false
	}
	if !a.Known {
		return true
	}
	if a.MinSize != b.MinSize || len(a.Shares) != len(b.Shares) {
		return false
	}
	for in, s := range a.Shares {
		if b.Shares[in] != s {
			return false
		}
	}
	return true
}
