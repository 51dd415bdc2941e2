package adversary

import (
	"cmp"
	"slices"
	"testing"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

func TestIsolatorGraphsAreConnectedPaths(t *testing.T) {
	a := NewIsolator(6, 0)
	sent := []engine.Message{
		wire.Null(), wire.Edge(1, 2, 3), wire.Null(), wire.Edge(1, 2, 3), wire.Done(5), nil,
	}
	g := a.Graph(1, sent)
	if !g.Connected() {
		t.Fatal("adversary must keep the network connected")
	}
	if g.LinkCount() != 5 {
		t.Fatalf("path on 6 should have 5 links, got %d", g.LinkCount())
	}
	// The target (0) must be a path endpoint, and the top-message holders
	// (1 and 3, holding the Edge) must occupy the other end.
	if g.Degree(0) != 1 {
		t.Errorf("target degree %d, want 1 (path endpoint)", g.Degree(0))
	}
	// Holders 1 and 3 must be adjacent to each other at the far end:
	// exactly one of them is the other endpoint.
	endpoints := 0
	for _, pid := range []int{1, 3} {
		if g.Degree(pid) == 1 {
			endpoints++
		}
	}
	if endpoints != 1 {
		t.Errorf("expected exactly one holder at the far endpoint, got %d", endpoints)
	}
	if g.Neighbors(1)[3] == 0 && g.Neighbors(3)[1] == 0 {
		t.Error("top-message holders should be contiguous on the path")
	}
}

// TestIsolatorLinksFollowItsPath pins the Isolator's in-order emission: its
// canonical link list is exactly the sorted consecutive pairs of the path
// it laid out, for every size, target and set of top-message holders.
func TestIsolatorLinksFollowItsPath(t *testing.T) {
	edge, null := wire.Edge(1, 2, 3), wire.Null()
	for _, n := range []int{1, 2, 3, 7, 32} {
		for target := 0; target < n; target += 3 {
			for mask := 0; mask < 8; mask++ {
				sent := make([]engine.Message, n)
				for pid := range sent {
					switch {
					case pid%3 == 2:
					case mask>>(pid%3)&1 != 0:
						sent[pid] = &edge
					default:
						sent[pid] = &null
					}
				}
				a := NewIsolator(n, target)
				g := a.Graph(1, sent)
				var want []dynnet.Link
				for i := 0; i+1 < len(a.order); i++ {
					u, v := a.order[i], a.order[i+1]
					want = append(want, dynnet.Link{U: min(u, v), V: max(u, v), Mult: 1})
				}
				slices.SortFunc(want, func(x, y dynnet.Link) int { return cmp.Or(x.U-y.U, x.V-y.V) })
				if got := g.Links(); !slices.Equal(got, want) {
					t.Fatalf("n=%d target=%d mask=%d: links %v, want the path %v", n, target, mask, got, want)
				}
			}
		}
	}
}

// TestIsolatorSteadyStateAllocs pins the Isolator's per-round cost at zero
// allocations once its path scratch and graph have grown: it runs every
// round of the paper's worst case, and a fresh graph and three slices per
// round once made it the run's main allocator.
func TestIsolatorSteadyStateAllocs(t *testing.T) {
	const n = 32
	edge, null := wire.Edge(1, 2, 3), wire.Null()
	sent := make([]engine.Message, n)
	for pid := range sent {
		sent[pid] = &null
		if pid%5 == 1 {
			sent[pid] = &edge
		}
	}
	a := NewIsolator(n, 0)
	a.Graph(1, sent).CanonicalLinks()
	allocs := testing.AllocsPerRun(100, func() {
		g := a.Graph(2, sent)
		if g.LinkCount() != n-1 {
			t.Fatalf("path on %d has %d links", n, g.LinkCount())
		}
	})
	if allocs != 0 {
		t.Fatalf("Isolator.Graph allocated %.1f objects per round, want 0", allocs)
	}
}

func TestCountingSurvivesIsolator(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		rec := core.NewRecorder()
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8, Recorder: rec}
		res, err := RunCountingUnderIsolator(n, cfg, core.RunOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.N != n {
			t.Fatalf("n=%d: counted %d", n, res.N)
		}
		if res.Stats.FinalDiamEstimate > 4*n {
			t.Errorf("n=%d: final estimate %d exceeds 4n (Lemma 4.7)", n, res.Stats.FinalDiamEstimate)
		}
		t.Logf("n=%d: rounds=%d resets=%d finalDiam=%d",
			n, res.Stats.Rounds, res.Stats.Resets, res.Stats.FinalDiamEstimate)
	}
}

func TestIsolatorForcesWorstCaseDiameter(t *testing.T) {
	// Against the isolator, the diameter estimate must be driven to ≥ n/2
	// (the message has to cross the whole path), unlike on benign random
	// graphs where it settles at 2–4.
	n := 8
	res, err := RunCountingUnderIsolator(n,
		core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalDiamEstimate < n/2 {
		t.Errorf("final estimate %d suspiciously small for an isolating adversary", res.Stats.FinalDiamEstimate)
	}
	if res.Stats.Resets < 2 {
		t.Errorf("expected repeated resets, got %d", res.Stats.Resets)
	}
}

func TestIsolatorWithFineGrainedResets(t *testing.T) {
	n := 6
	cfg := core.Config{Mode: core.ModeLeader, FineGrainedReset: true, MaxLevels: 3*n + 8}
	res, err := RunCountingUnderIsolator(n, cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("counted %d", res.N)
	}
}

func TestDiamSpikerServesCompleteUntilContentFlows(t *testing.T) {
	a := NewDiamSpiker(5)
	// Control traffic (Null, Begin) must not trigger the spike.
	g := a.Graph(1, []engine.Message{wire.Null(), wire.Begin(0), nil})
	if g.LinkCount() != 5*4/2 {
		t.Fatalf("pre-spike graph should be complete, got %d links", g.LinkCount())
	}
	// The first Edge in flight flips the adversary permanently.
	g = a.Graph(2, []engine.Message{wire.Edge(1, 2, 1)})
	if g.LinkCount() == 5*4/2 {
		t.Fatal("adversary did not spike on Edge traffic")
	}
	for round := 3; round <= 6; round++ {
		g := a.Graph(round, nil)
		if !g.Connected() {
			t.Fatalf("round %d: spiked graph disconnected", round)
		}
		if g.LinkCount() != 4 {
			t.Fatalf("round %d: spiked graph is not a path (%d links)", round, g.LinkCount())
		}
	}
}

func TestDiamSpikerForcesResetAndStillCounts(t *testing.T) {
	for _, n := range []int{4, 6} {
		inputs := make([]historytree.Input, n)
		inputs[0].Leader = true
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
		checker := check.New(inputs)
		checker.Attach(&cfg)
		res, err := core.RunAdaptive(NewDiamSpiker(n), inputs, cfg, core.RunOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.N != n {
			t.Fatalf("n=%d: counted %d", n, res.N)
		}
		if res.Stats.Resets < 1 {
			t.Fatalf("n=%d: the spike never fired the reset machinery", n)
		}
		if err := checker.Verify(res); err != nil {
			t.Fatalf("n=%d: invariant checker: %v", n, err)
		}
		t.Logf("n=%d: rounds=%d resets=%d finalDiam=%d",
			n, res.Stats.Rounds, res.Stats.Resets, res.Stats.FinalDiamEstimate)
	}
}
