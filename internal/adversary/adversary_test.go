package adversary

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/oracle"
	"anondyn/internal/wire"
)

func TestIsolatorGraphsAreConnectedPaths(t *testing.T) {
	a := NewIsolator(6, 0)
	sent := append(boxed(wire.Null(), wire.Edge(1, 2, 3), wire.Null(), wire.Edge(1, 2, 3), wire.Done(5)), nil)
	g := a.Graph(1, sent)
	if !oracle.Connected(g) {
		t.Fatal("adversary must keep the network connected")
	}
	if oracle.LinkCount(g) != 5 {
		t.Fatalf("path on 6 should have 5 links, got %d", oracle.LinkCount(g))
	}
	// The target (0) must be a path endpoint, and the top-message holders
	// (1 and 3, holding the Edge) must occupy the other end.
	if oracle.Degree(g, 0) != 1 {
		t.Errorf("target degree %d, want 1 (path endpoint)", oracle.Degree(g, 0))
	}
	// Holders 1 and 3 must be adjacent to each other at the far end:
	// exactly one of them is the other endpoint.
	endpoints := 0
	for _, pid := range []int{1, 3} {
		if oracle.Degree(g, pid) == 1 {
			endpoints++
		}
	}
	if endpoints != 1 {
		t.Errorf("expected exactly one holder at the far endpoint, got %d", endpoints)
	}
	if oracle.Neighbors(g, 1)[3] == 0 && oracle.Neighbors(g, 3)[1] == 0 {
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

// boxed boxes each message as the simulation does: one *wire.Message per
// sender.
func boxed(ms ...wire.Message) []engine.Message {
	sent := make([]engine.Message, len(ms))
	for i := range ms {
		sent[i] = &ms[i]
	}
	return sent
}

// isolatorOracle is the per-sender Isolator that ranking boxes replaced:
// it compares every sender's message with the top, picks as holders the
// senders whose message ties it, and links the path with AddLink, leaving
// the canonical order to the graph. A target outside [0, n) is no target.
// It returns the path's canonical links.
func isolatorOracle(n, target int, sent []engine.Message) []dynnet.Link {
	top := -1
	var topMsg wire.Message
	for pid, raw := range sent {
		m, ok := wire.FromBox(raw)
		if !ok {
			continue
		}
		if top < 0 || core.Higher(m, topMsg) {
			top, topMsg = pid, m
		}
	}
	var order, middle []int
	for pid, raw := range sent {
		if pid == target {
			continue
		}
		m, ok := wire.FromBox(raw)
		if ok && top >= 0 && core.Compare(m, topMsg) == 0 {
			order = append(order, pid)
			continue
		}
		middle = append(middle, pid)
	}
	order = append(order, middle...)
	if target >= 0 && target < n {
		order = append(order, target)
	}
	g := dynnet.NewMultigraph(n)
	for i := 0; i+1 < len(order); i++ {
		g.MustAddLink(order[i], order[i+1], 1)
	}
	return g.Links()
}

// isolatorCatalog holds messages of every band, with pairs of equal
// priority but different parameters (Begin, Halt) and pairs that
// differ in priority within a band (Done, Edge, Reset).
var isolatorCatalog = []wire.Message{
	wire.Null(), wire.Begin(1), wire.Begin(2), wire.End(), wire.Done(3), wire.Done(5),
	wire.Edge(1, 2, 3), wire.Edge(1, 2, 4), wire.Error(2), wire.Reset(1, 9, 4),
	wire.Reset(2, 9, 4), wire.Halt(5, 10), wire.Halt(6, 11),
}

// randomSent draws one round's sent vector: a few heap boxes, each shared
// by many senders (a catalog entry may be drawn twice, giving two boxes of
// one value), mixed with boxes of a single sender, nil for terminated
// processes and a non-protocol value.
func randomSent(rng *rand.Rand, n int) []engine.Message {
	boxes := make([]*wire.Message, 1+rng.IntN(5))
	for i := range boxes {
		m := isolatorCatalog[rng.IntN(len(isolatorCatalog))]
		boxes[i] = &m
	}
	sent := make([]engine.Message, n)
	for pid := range sent {
		switch r := rng.IntN(20); {
		case r < 2:
		case r < 3:
			sent[pid] = "not a protocol message"
		case r < 5:
			m := isolatorCatalog[rng.IntN(len(isolatorCatalog))]
			sent[pid] = &m
		default:
			sent[pid] = boxes[rng.IntN(len(boxes))]
		}
	}
	return sent
}

// TestIsolatorMatchesPerSenderOracle requires the box-ranking Isolator to
// lay out exactly the oracle's path, round after round on one Isolator,
// for every target position and targets outside [0, n). Distinct boxes of
// the top priority must all count as holders, so an Isolator that picked
// holders by box identity alone fails here.
func TestIsolatorMatchesPerSenderOracle(t *testing.T) {
	edge := wire.Edge(1, 2, 3)
	haltA, haltB := wire.Halt(5, 10), wire.Halt(6, 11)
	for _, n := range []int{1, 2, 5, 32} {
		for target := -1; target <= n; target++ {
			t.Run(fmt.Sprintf("n=%d/target=%d", n, target), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(n), uint64(target+1)))
				a := NewIsolator(n, target)
				// Two Halt boxes tie for the top, far apart in pid order.
				pinned := make([]engine.Message, n)
				for pid := range pinned {
					pinned[pid] = &edge
				}
				pinned[0], pinned[n-1] = &haltA, &haltB
				for round := 1; round <= 60; round++ {
					sent := pinned
					if round > 1 {
						sent = randomSent(rng, n)
					}
					want := isolatorOracle(n, target, sent)
					got := a.Graph(round, sent).CanonicalLinks()
					if !slices.Equal(got, want) {
						t.Fatalf("round %d, sent %v: links %v, want %v", round, sent, got, want)
					}
				}
			})
		}
	}
}

// TestIsolatorTargetOutOfRange: a target outside [0, n), negative ones
// included, means no target, through the engine as well.
func TestIsolatorTargetOutOfRange(t *testing.T) {
	const n = 4
	for _, target := range []int{-7, -1, n, n + 3} {
		null, edge1, edge3 := wire.Null(), wire.Edge(1, 2, 3), wire.Edge(1, 2, 3)
		sent := []engine.Message{&null, &edge1, nil, &edge3}
		g := NewIsolator(n, target).Graph(1, sent)
		if want := isolatorOracle(n, -1, sent); !slices.Equal(g.CanonicalLinks(), want) {
			t.Fatalf("target %d: links %v, want the untargeted path %v", target, g.CanonicalLinks(), want)
		}
		inputs := make([]historytree.Input, n)
		inputs[0].Leader = true
		cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
		res, err := core.RunAdaptive(NewIsolator(n, target), inputs, cfg, core.RunOptions{})
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if res.N != n {
			t.Fatalf("target %d: counted %d, want %d", target, res.N, n)
		}
	}
}

// BenchmarkIsolatorGraph times one round of the Isolator at the
// congested-isolator size: 32 senders sharing 5 interleaved boxes.
func BenchmarkIsolatorGraph(b *testing.B) {
	const n = 32
	msgs := []wire.Message{wire.Null(), wire.Begin(1), wire.Done(3), wire.Edge(1, 2, 3), wire.Reset(1, 9, 4)}
	sent := make([]engine.Message, n)
	for pid := range sent {
		sent[pid] = &msgs[pid%len(msgs)]
	}
	a := NewIsolator(n, 0)
	for i := 0; i < b.N; i++ {
		a.Graph(i, sent)
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
		if oracle.LinkCount(g) != n-1 {
			t.Fatalf("path on %d has %d links", n, oracle.LinkCount(g))
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
	a := oracle.NewDiamSpiker(5)
	// Control traffic (Null, Begin) must not trigger the spike.
	g := a.Graph(1, append(boxed(wire.Null(), wire.Begin(0)), nil))
	if oracle.LinkCount(g) != 5*4/2 {
		t.Fatalf("pre-spike graph should be complete, got %d links", oracle.LinkCount(g))
	}
	// The first Edge in flight flips the adversary permanently.
	g = a.Graph(2, boxed(wire.Edge(1, 2, 1)))
	if oracle.LinkCount(g) == 5*4/2 {
		t.Fatal("adversary did not spike on Edge traffic")
	}
	for round := 3; round <= 6; round++ {
		g := a.Graph(round, nil)
		if !oracle.Connected(g) {
			t.Fatalf("round %d: spiked graph disconnected", round)
		}
		if oracle.LinkCount(g) != 4 {
			t.Fatalf("round %d: spiked graph is not a path (%d links)", round, oracle.LinkCount(g))
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
		res, err := core.RunAdaptive(oracle.NewDiamSpiker(n), inputs, cfg, core.RunOptions{})
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
