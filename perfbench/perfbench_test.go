package main

import (
	"slices"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// The timing decorator must implement dynnet.InPlaceSchedule exactly when
// the schedule it wraps does, or the engine would take its cloning Graph
// path in traced runs only.
func TestTimeScheduleKeepsInterfaces(t *testing.T) {
	for _, s := range []dynnet.Schedule{
		dynnet.NewRandomConnected(8, 0.3, 1), // in place
		dynnet.NewShiftingPath(8),            // Graph only
	} {
		var busy time.Duration
		wrapped := timeSchedule(s, &busy)
		_, want := s.(dynnet.InPlaceSchedule)
		ip, got := wrapped.(dynnet.InPlaceSchedule)
		if got != want {
			t.Fatalf("%T: wrapper implements InPlaceSchedule = %v, wrapped schedule = %v", s, got, want)
		}
		if wrapped.N() != s.N() || !sameGraph(wrapped.Graph(3), s.Graph(3)) {
			t.Fatalf("%T: wrapper changes the round-3 graph", s)
		}
		if ip != nil {
			g := dynnet.NewMultigraph(8)
			ip.GraphInto(5, g)
			if !sameGraph(g, s.Graph(5)) {
				t.Fatalf("%T: wrapper changes the round-5 graph built in place", s)
			}
		}
		if busy <= 0 {
			t.Fatalf("%T: wrapper timed nothing", s)
		}
	}
}

func sameGraph(a, b *dynnet.Multigraph) bool {
	return a.N() == b.N() && slices.Equal(a.CanonicalLinks(), b.CanonicalLinks())
}

// A traced run must take the same path as an untraced one: the exact
// counts of RunStats agree, and every layer the workload drives is timed.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, name := range []string{"congested-random", "congested-isolator", "linear-random"} {
		w, err := newWorkload(name, true, "")
		if err != nil {
			t.Fatal(err)
		}
		cw := w.(*countingWorkload)
		if err := cw.setup(7); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := &tracer{}
		for i := range cw.list {
			c := &cw.list[i]
			plain, _, err := cw.runCase(c, nil)
			if err = verify(c, plain, err); err != nil {
				t.Fatalf("%s case %d untraced: %v", name, i, err)
			}
			traced, _, err := cw.runCase(c, tr)
			if err = verify(c, traced, err); err != nil {
				t.Fatalf("%s case %d traced: %v", name, i, err)
			}
			if a, b := exactOf(plain.Stats), exactOf(traced.Stats); a != b {
				t.Fatalf("%s case %d: traced counts %+v, untraced %+v", name, i, b, a)
			}
		}
		if len(tr.gaps) == 0 || tr.graph+tr.adv <= 0 {
			t.Fatalf("%s: tracer saw %d round gaps, %v in the schedule", name, len(tr.gaps), tr.graph+tr.adv)
		}
	}
}

// The smoke mode runs every workload once, untraced and traced, and
// checks the emitted metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if err := smoke("../BENCHMARK.json", t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
