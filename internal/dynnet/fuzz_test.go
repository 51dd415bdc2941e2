package dynnet_test

import (
	"testing"

	. "anondyn/internal/dynnet"
	"anondyn/internal/oracle"
)

// FuzzRandomConnectedSchedule drives the random connected generator with
// arbitrary (n, p, seed, round) and asserts its contract: every graph is
// connected, its canonical link list is strictly ordered and well-formed,
// the schedule is a pure function of its parameters, and the in-place
// GraphInto path produces exactly the allocating Graph path's graph.
func FuzzRandomConnectedSchedule(f *testing.F) {
	f.Add(byte(2), uint16(0), int64(0), uint16(1))
	f.Add(byte(5), uint16(32768), int64(42), uint16(3))
	f.Add(byte(24), uint16(65535), int64(-7), uint16(200))
	f.Add(byte(9), uint16(100), int64(1<<40), uint16(17))

	f.Fuzz(func(t *testing.T, nRaw byte, pRaw uint16, seed int64, roundRaw uint16) {
		n := 2 + int(nRaw)%23 // [2, 24]
		p := float64(pRaw) / 65535
		round := 1 + int(roundRaw)
		s := NewRandomConnected(n, p, seed)
		g := s.Graph(round)
		if g.N() != n {
			t.Fatalf("graph on %d processes, want %d", g.N(), n)
		}
		if !oracle.Connected(g) {
			t.Fatalf("n=%d p=%v seed=%d round=%d: disconnected graph", n, p, seed, round)
		}
		links := g.CanonicalLinks()
		for i, l := range links {
			if l.U < 0 || l.V <= l.U || l.V >= n {
				t.Fatalf("link %d = %+v out of canonical form on %d processes", i, l, n)
			}
			if l.Mult < 1 {
				t.Fatalf("link %d = %+v has non-positive multiplicity", i, l)
			}
			if i > 0 {
				prev := links[i-1]
				if prev.U > l.U || (prev.U == l.U && prev.V >= l.V) {
					t.Fatalf("links %d,%d out of order: %+v then %+v", i-1, i, prev, l)
				}
			}
		}
		// Purity: an independent schedule value replays the same graph.
		again := NewRandomConnected(n, p, seed).Graph(round)
		if !sameGraph(g, again) {
			t.Fatalf("schedule is not a pure function of (n,p,seed,round)")
		}
		// GraphInto into recycled storage must match, including after the
		// buffer held a different round's graph.
		buf := NewMultigraph(n)
		s.GraphInto(round+1, buf)
		s.GraphInto(round, buf)
		if !sameGraph(g, buf) {
			t.Fatalf("GraphInto diverged from Graph at round %d", round)
		}
	})
}

func sameGraph(a, b *Multigraph) bool {
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
