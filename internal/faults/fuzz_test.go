package faults

import (
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/oracle"
)

// FuzzFaultPlan feeds arbitrary specs through the fault-plan grammar and
// asserts the Plan contract on everything Parse accepts: String is an
// exact round trip, application is deterministic, every produced graph is
// a well-formed multigraph on the inner schedule's process set, and
// in-model plans preserve BudgetT-block union-connectivity.
func FuzzFaultPlan(f *testing.F) {
	f.Add("", 1, int64(0))
	f.Add("burst:1:0", 4, int64(5))
	f.Add("spike:7:40,storm:1:0:3", 1, int64(11))
	f.Add("cut:3:12,drop:2:10:0.25", 2, int64(-3))
	f.Add("crash:0:5:20", 1, int64(9))
	f.Add("spike:1:2:3", 1, int64(1))        // malformed: must be rejected
	f.Add("storm:1:0:1", 1, int64(1))        // malformed: factor < 2
	f.Add("drop:1:0:NaN", 1, int64(1))       // malformed: bad float
	f.Add("burst:1:0,,cut:1:1", 1, int64(1)) // malformed: empty entry

	f.Fuzz(func(t *testing.T, spec string, budgetT int, seed int64) {
		budgetT = 1 + abs(budgetT)%8
		p, err := Parse(spec, budgetT, seed)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := p.String()
		again, err := Parse(rendered, budgetT, seed)
		if err != nil {
			t.Fatalf("String() %q of accepted spec %q does not re-parse: %v", rendered, spec, err)
		}
		if again.String() != rendered {
			t.Fatalf("String round trip drifted: %q → %q", rendered, again.String())
		}

		const n = 6
		if err := p.ValidateFor(n); err != nil {
			return // e.g. a crash PID beyond the network; a legal rejection
		}
		inner := dynnet.NewRandomConnected(n, 0.4, 3)
		var base dynnet.Schedule = inner
		if budgetT > 1 {
			uc, err := dynnet.NewUnionConnected(inner, budgetT)
			if err != nil {
				t.Fatal(err)
			}
			base = uc
		}
		a, b := p.Wrap(base), p.Wrap(base)
		horizon := 3*budgetT + 4
		for round := 1; round <= horizon; round++ {
			g := a.Graph(round)
			if g.N() != n {
				t.Fatalf("round %d: graph on %d processes, want %d", round, g.N(), n)
			}
			for _, l := range g.CanonicalLinks() {
				if l.U < 0 || l.V <= l.U || l.V >= n || l.Mult < 1 {
					t.Fatalf("round %d: malformed link %+v", round, l)
				}
			}
			h := b.Graph(round)
			if oracle.LinkCount(g) != oracle.LinkCount(h) || len(g.CanonicalLinks()) != len(h.CanonicalLinks()) {
				t.Fatalf("round %d: identical plans diverged", round)
			}
			for i, l := range g.CanonicalLinks() {
				if h.CanonicalLinks()[i] != l {
					t.Fatalf("round %d: identical plans diverged at link %d", round, i)
				}
			}
		}
		if p.InModel() {
			for start := 1; start+budgetT-1 <= horizon; start += budgetT {
				ok, err := oracle.UnionConnected(a, start, budgetT)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("in-model plan %q broke union-connectivity of block at round %d", rendered, start)
				}
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
