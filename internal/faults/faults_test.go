package faults

import (
	"strings"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/oracle"
)

// graphsEqual compares two multigraphs by canonical link list.
func graphsEqual(a, b *dynnet.Multigraph) bool {
	if a.N() != b.N() {
		return false
	}
	la, lb := a.CanonicalLinks(), b.CanonicalLinks()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"burst:1:0",
		"spike:7:40",
		"cut:3:12",
		"storm:1:0:3",
		"drop:2:10:0.25",
		"crash:0:5:20",
		"spike:7:40,storm:1:0:3",
		"burst:1:0,cut:9:4,drop:1:0:1",
	}
	for _, spec := range specs {
		p, err := Parse(spec, 4, 11)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
		again, err := Parse(p.String(), 4, 11)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if again.String() != spec {
			t.Errorf("round trip drifted: %q → %q", spec, again.String())
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"unknown:1:2",
		"spike",
		"spike:1",
		"spike:1:2:3",
		"spike:x:2",
		"storm:1:0",
		"storm:1:0:1",   // factor < 2
		"drop:1:0:0",    // P out of (0,1]
		"drop:1:0:1.5",  // P out of (0,1]
		"crash:-1:1:0",  // negative PID
		"spike:0:4",     // window before round 1
		"burst:1:0,,",   // empty entry
		"drop:1:0:nope", // malformed float
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 2, 1); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	// Two plans with equal seeds over equal schedules must produce
	// byte-identical topology streams, including the randomized LinkDrop.
	base := dynnet.NewRandomConnected(7, 0.5, 3)
	mk := func() *Schedule {
		p, err := Parse("spike:4:6,drop:2:0:0.4,storm:1:0:2", 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		return p.Wrap(base)
	}
	a, b := mk(), mk()
	for round := 1; round <= 40; round++ {
		if !graphsEqual(a.Graph(round), b.Graph(round)) {
			t.Fatalf("round %d: identical plans diverged", round)
		}
	}
}

func TestPlanNeverMutatesInnerSchedule(t *testing.T) {
	// The wrapped schedule's own graphs must be untouched by fault
	// application (apply builds fresh graphs).
	inner := dynnet.NewRandomConnected(6, 0.4, 5)
	p, err := Parse("storm:1:0:3,crash:2:1:0", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Wrap(inner)
	for round := 1; round <= 10; round++ {
		before := inner.Graph(round)
		_ = s.Graph(round)
		if !graphsEqual(before, inner.Graph(round)) {
			t.Fatalf("round %d: fault application mutated the inner schedule", round)
		}
	}
}

func TestInModelClassification(t *testing.T) {
	inModel := []string{"burst:1:0", "spike:1:0", "cut:1:0", "storm:1:0:2"}
	for _, spec := range inModel {
		p, err := Parse(spec, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !p.InModel() {
			t.Errorf("%q must be in-model", spec)
		}
	}
	outOfModel := []string{"drop:1:0:0.5", "crash:0:1:0", "spike:1:0,drop:1:0:1"}
	for _, spec := range outOfModel {
		p, err := Parse(spec, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.InModel() {
			t.Errorf("%q must be out-of-model", spec)
		}
	}
}

func TestValidateForCatchesBadCrashPID(t *testing.T) {
	p, err := Parse("crash:9:1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateFor(4); err == nil {
		t.Fatal("crash PID 9 on a 4-process network must be rejected")
	}
	if err := p.ValidateFor(10); err != nil {
		t.Fatalf("crash PID 9 on a 10-process network must be fine: %v", err)
	}
}

// TestInModelPlansPreserveUnionConnectivity is the core in-model contract:
// whenever the wrapped schedule's aligned BudgetT-round blocks are
// union-connected, the faulted schedule's are too.
func TestInModelPlansPreserveUnionConnectivity(t *testing.T) {
	plans := []string{
		"burst:1:0",
		"spike:3:10",
		"cut:2:8",
		"storm:1:0:4",
		"burst:1:0,spike:5:6",
		"burst:2:9,cut:1:0,storm:4:3:2",
	}
	for _, T := range []int{1, 2, 4, 8} {
		for _, spec := range plans {
			for _, n := range []int{2, 5, 9} {
				p, err := Parse(spec, T, 17)
				if err != nil {
					t.Fatal(err)
				}
				inner := dynnet.NewRandomConnected(n, 0.4, int64(n)*31+int64(T))
				var base dynnet.Schedule = inner
				if T > 1 {
					base, err = dynnet.NewUnionConnected(inner, T)
					if err != nil {
						t.Fatal(err)
					}
				}
				s := p.Wrap(base)
				for start := 1; start <= 4*T+9; start += T {
					ok, err := oracle.UnionConnected(s, start, T)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("T=%d plan=%q n=%d: block starting at round %d lost union-connectivity",
							T, spec, n, start)
					}
				}
			}
		}
	}
}

// TestBurstDisconnectsIndividualRounds checks that the burst actually does
// something: with a budget T ≥ 2 over a connected schedule, at least one
// individual round in the faulted window is disconnected (otherwise the
// matrix tests would not be exercising the block simulation at all).
func TestBurstDisconnectsIndividualRounds(t *testing.T) {
	n, T := 8, 4
	p, err := Parse("burst:1:0", T, 5)
	if err != nil {
		t.Fatal(err)
	}
	inner := dynnet.NewRandomConnected(n, 0.3, 21)
	base, err := dynnet.NewUnionConnected(inner, T)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Wrap(base)
	disconnected := 0
	for round := 1; round <= 8*T; round++ {
		if !oracle.Connected(s.Graph(round)) {
			disconnected++
		}
	}
	if disconnected == 0 {
		t.Fatal("burst over a 4-union-connected schedule never disconnected a round")
	}
}

func TestCrashSeversAllLinks(t *testing.T) {
	p, err := Parse("crash:3:2:5", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Wrap(dynnet.NewStatic(dynnet.Complete(6)))
	for round := 1; round <= 10; round++ {
		deg := oracle.Degree(s.Graph(round), 3)
		inWindow := round >= 2 && round < 7
		if inWindow && deg != 0 {
			t.Fatalf("round %d: crashed process has degree %d", round, deg)
		}
		if !inWindow && deg == 0 {
			t.Fatalf("round %d: process 3 should be restored outside the window", round)
		}
	}
}

func TestDropExtremes(t *testing.T) {
	p, err := Parse("drop:1:0:1", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Wrap(dynnet.NewStatic(dynnet.Complete(5)))
	for round := 1; round <= 5; round++ {
		if got := oracle.LinkCount(s.Graph(round)); got != 0 {
			t.Fatalf("round %d: P=1 drop left %d links", round, got)
		}
	}
}

func TestStormMultipliesMultiplicities(t *testing.T) {
	p, err := Parse("storm:1:0:3", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Wrap(dynnet.NewStatic(dynnet.Path(4)))
	for _, l := range s.Graph(1).CanonicalLinks() {
		if l.Mult != 3 {
			t.Fatalf("storm ×3 produced multiplicity %d", l.Mult)
		}
	}
}

func TestAdaptiveWrapMatchesObliviousOnObliviousInner(t *testing.T) {
	// Wrapping the same pure schedule both ways must give the same stream —
	// including burst plans, whose adaptive path freezes block graphs.
	inner := dynnet.NewRandomConnected(6, 0.5, 13)
	for _, spec := range []string{"spike:2:5,storm:1:0:2", "burst:1:0"} {
		T := 3
		var base dynnet.Schedule = inner
		var err error
		if strings.Contains(spec, "burst") {
			base, err = dynnet.NewUnionConnected(inner, T)
			if err != nil {
				t.Fatal(err)
			}
		}
		p, err := Parse(spec, T, 1)
		if err != nil {
			t.Fatal(err)
		}
		obliv := p.Wrap(base)
		// The adaptive wrapper freezes the reactive adversary's raw graph at
		// each block's first round, so its inner schedule must be connected
		// per round (as a real adaptive adversary is) — wrap the connected
		// inner directly, not the pre-sliced union-connected base.
		adaptive := p.WrapAdaptive(scheduleAdapter{inner})
		for round := 1; round <= 4*T; round++ {
			og := obliv.Graph(round)
			ag := adaptive.Graph(round, nil)
			if strings.Contains(spec, "burst") {
				// The adaptive path freezes the block's first raw graph, the
				// oblivious path re-queries per round: streams legitimately
				// differ per round, but each aligned block must stay
				// union-connected.
				continue
			}
			if !graphsEqual(og, ag) {
				t.Fatalf("plan %q round %d: adaptive wrap diverged from oblivious wrap", spec, round)
			}
		}
		if strings.Contains(spec, "burst") {
			for start := 1; start <= 3*T; start += T {
				acc := adaptive.Graph(start, nil)
				for r := start + 1; r < start+T; r++ {
					next, err := acc.Union(adaptive.Graph(r, nil))
					if err != nil {
						t.Fatal(err)
					}
					acc = next
				}
				if !oracle.Connected(acc) {
					t.Fatalf("plan %q: adaptive block at %d not union-connected", spec, start)
				}
			}
		}
	}
}

// scheduleAdapter exposes a pure dynnet.Schedule as an adaptive one.
type scheduleAdapter struct{ s dynnet.Schedule }

func (a scheduleAdapter) N() int { return a.s.N() }

func (a scheduleAdapter) Graph(round int, _ []engine.Message) *dynnet.Multigraph {
	return a.s.Graph(round)
}
