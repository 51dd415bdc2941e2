package oracle

import (
	"fmt"

	"anondyn/internal/historytree"
)

// CheckWeights verifies that the given true cardinalities (node ID → count)
// satisfy every constraint the solver uses on levels 0..completeLevels:
// children partition parents, and all red-edge balance equations hold. It
// is the property-test oracle for the solver's soundness argument. It
// checks the balance of every pair of level-l classes rather than only the
// pairs the solver enumerates, so it shares no code with the solver; a
// pair that no red edge links balances as 0 = 0.
func CheckWeights(t *historytree.Tree, completeLevels int, card map[int]int) error {
	if completeLevels > t.Depth() {
		return fmt.Errorf("historytree: completeLevels %d exceeds depth %d", completeLevels, t.Depth())
	}
	for l := 0; l < completeLevels; l++ {
		for _, v := range t.Level(l) {
			sum := 0
			for _, c := range v.Children {
				sum += card[c.ID]
			}
			if sum != card[v.ID] {
				return fmt.Errorf("historytree: node %d has cardinality %d but children sum to %d",
					v.ID, card[v.ID], sum)
			}
		}
		level := t.Level(l)
		for i, u := range level {
			for _, w := range level[i+1:] {
				lhs, rhs := 0, 0
				for _, c := range w.Children {
					lhs += c.RedMult(u) * card[c.ID]
				}
				for _, c := range u.Children {
					rhs += c.RedMult(w) * card[c.ID]
				}
				if lhs != rhs {
					return fmt.Errorf("historytree: balance violated between %d and %d at level %d: %d != %d",
						u.ID, w.ID, l, lhs, rhs)
				}
			}
		}
	}
	return nil
}
