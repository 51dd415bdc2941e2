package dynnet_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	. "anondyn/internal/dynnet"
	"anondyn/internal/oracle"
)

func TestNewMultigraphPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative n")
		}
	}()
	NewMultigraph(-1)
}

func TestAddLinkValidation(t *testing.T) {
	g := NewMultigraph(3)
	tests := []struct {
		name    string
		u, v, m int
		wantErr bool
	}{
		{name: "ok", u: 0, v: 1, m: 1},
		{name: "self-loop", u: 2, v: 2, m: 1},
		{name: "u-negative", u: -1, v: 1, m: 1, wantErr: true},
		{name: "v-too-big", u: 0, v: 3, m: 1, wantErr: true},
		{name: "zero-mult", u: 0, v: 1, m: 0, wantErr: true},
		{name: "negative-mult", u: 0, v: 1, m: -2, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddLink(tt.u, tt.v, tt.m)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddLink(%d,%d,%d) error = %v, wantErr %v", tt.u, tt.v, tt.m, err, tt.wantErr)
			}
		})
	}
}

func TestAddLinkAccumulatesAndCanonicalizes(t *testing.T) {
	g := NewMultigraph(4)
	g.MustAddLink(2, 1, 1)
	g.MustAddLink(1, 2, 3)
	links := g.Links()
	if len(links) != 1 {
		t.Fatalf("got %d link entries, want 1", len(links))
	}
	if links[0] != (Link{U: 1, V: 2, Mult: 4}) {
		t.Fatalf("got %+v, want {1 2 4}", links[0])
	}
	if oracle.LinkCount(g) != 4 {
		t.Fatalf("LinkCount=%d, want 4", oracle.LinkCount(g))
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := NewMultigraph(4)
	g.MustAddLink(0, 1, 2)
	g.MustAddLink(0, 2, 1)
	g.MustAddLink(3, 3, 2) // double self-loop: two messages to itself

	nb := oracle.Neighbors(g, 0)
	if nb[1] != 2 || nb[2] != 1 || len(nb) != 2 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	if oracle.Degree(g, 0) != 3 {
		t.Fatalf("Degree(0)=%d, want 3", oracle.Degree(g, 0))
	}
	nb3 := oracle.Neighbors(g, 3)
	if nb3[3] != 2 {
		t.Fatalf("Neighbors(3) = %v, want self-loop multiplicity 2", nb3)
	}
	if oracle.Degree(g, 3) != 2 {
		t.Fatalf("Degree(3)=%d, want 2", oracle.Degree(g, 3))
	}
	if len(oracle.Neighbors(g, 1)) != 1 {
		t.Fatalf("Neighbors(1) = %v", oracle.Neighbors(g, 1))
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Multigraph
		want bool
	}{
		{name: "empty", g: NewMultigraph(0), want: true},
		{name: "singleton", g: NewMultigraph(1), want: true},
		{name: "two-isolated", g: NewMultigraph(2), want: false},
		{name: "path", g: Path(5), want: true},
		{name: "cycle", g: Cycle(6), want: true},
		{name: "complete", g: Complete(4), want: true},
		{name: "star", g: Star(5, 2), want: true},
		{name: "self-loops-only", g: func() *Multigraph {
			g := NewMultigraph(2)
			g.MustAddLink(0, 0, 1)
			g.MustAddLink(1, 1, 1)
			return g
		}(), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := oracle.Connected(tt.g); got != tt.want {
				t.Fatalf("Connected() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestUnion(t *testing.T) {
	a := NewMultigraph(3)
	a.MustAddLink(0, 1, 1)
	b := NewMultigraph(3)
	b.MustAddLink(1, 2, 2)
	b.MustAddLink(0, 1, 1)

	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Connected(u) {
		t.Error("union should be connected")
	}
	if oracle.LinkCount(u) != 4 {
		t.Errorf("union LinkCount=%d, want 4", oracle.LinkCount(u))
	}
	// Mismatched sizes error.
	if _, err := a.Union(NewMultigraph(4)); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.MustAddLink(0, 3, 5)
	if oracle.LinkCount(g) == oracle.LinkCount(c) {
		t.Fatal("clone shares state with original")
	}
}

func TestStandardTopologies(t *testing.T) {
	// Cycle degeneracies from the paper: C_2 is a double link, C_1 a
	// double self-loop; every cycle is 2-regular.
	for n := 1; n <= 6; n++ {
		c := Cycle(n)
		for v := 0; v < n; v++ {
			if d := oracle.Degree(c, v); d != 2 {
				t.Errorf("Cycle(%d): degree(%d)=%d, want 2", n, v, d)
			}
		}
	}
	if got := oracle.LinkCount(Complete(5)); got != 10 {
		t.Errorf("K5 has %d links, want 10", got)
	}
	if got := oracle.Degree(Star(5, 3), 3); got != 4 {
		t.Errorf("Star center degree %d, want 4", got)
	}
	if got := oracle.LinkCount(Path(1)); got != 0 {
		t.Errorf("Path(1) has %d links", got)
	}
}

func TestString(t *testing.T) {
	g := NewMultigraph(4)
	g.MustAddLink(2, 3, 1)
	g.MustAddLink(0, 1, 2)
	if got, want := g.String(), "n=4 {0-1 x2, 2-3}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRandomConnectedIsConnectedProperty(t *testing.T) {
	f := func(nSeed uint8, pSeed uint8, seed int64) bool {
		n := 1 + int(nSeed%20)
		p := float64(pSeed) / 255
		g := oracle.RandomConnected(n, p, rand.New(rand.NewSource(seed)))
		return g.N() == n && oracle.Connected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinksReturnsCopy(t *testing.T) {
	g := Path(3)
	links := g.Links()
	links[0].Mult = 99
	if g.Links()[0].Mult == 99 {
		t.Fatal("Links() exposes internal state")
	}
}

// TestResetPath checks ResetPath against AddLink over random
// permutations, on a reused graph: the links are the path's, already in
// canonical order. A non-permutation is rejected and leaves no links.
func TestResetPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Path(7)
	for _, n := range []int{0, 1, 2, 3, 8, 33} {
		for trial := 0; trial < 20; trial++ {
			order := rng.Perm(n)
			if err := g.ResetPath(order); err != nil {
				t.Fatalf("ResetPath(%v): %v", order, err)
			}
			want := NewMultigraph(n)
			for i := 0; i+1 < n; i++ {
				want.MustAddLink(order[i], order[i+1], 1)
			}
			if g.N() != n || g.String() != want.String() {
				t.Fatalf("ResetPath(%v) = %v, want %v", order, g, want)
			}
			if got := g.CanonicalLinks(); !slices.IsSortedFunc(got, CmpLinks) {
				t.Fatalf("ResetPath(%v) links %v not in canonical order", order, got)
			}
		}
	}
	for _, order := range [][]int{{0, 0}, {1, 2}, {0, -1}, {2, 0, 0}} {
		if err := g.ResetPath(order); err == nil {
			t.Errorf("ResetPath(%v) accepted a non-permutation", order)
		}
		if oracle.LinkCount(g) != 0 {
			t.Errorf("ResetPath(%v) left links %v", order, g)
		}
	}
	order := rng.Perm(32)
	if err := g.ResetPath(order); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.ResetPath(order) }); allocs != 0 {
		t.Fatalf("ResetPath on a reused graph allocated %.1f objects, want 0", allocs)
	}
}
