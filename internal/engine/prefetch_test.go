package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// slowSchedule is a static schedule whose every GraphInto takes about cost
// of wall time, so a run over it is mostly graph generation.
type slowSchedule struct {
	*dynnet.StaticSchedule
	cost time.Duration
}

func (s slowSchedule) GraphInto(t int, g *dynnet.Multigraph) {
	for start := time.Now(); time.Since(start) < s.cost; {
	}
	s.StaticSchedule.GraphInto(t, g)
}

// busyProc sends every round and then busy-waits cost, so a run of such
// processes is mostly protocol work.
func busyProc(cost time.Duration) Coroutine {
	return CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive(0); err != nil {
				return nil, err
			}
			for start := time.Now(); time.Since(start) < cost; {
			}
		}
	})
}

// pulseProc sends for 10 rounds and then relays one message for 20, over
// and over. Processes that all run it relay in step, so each relay is one
// quiet stretch: rounds 30k+11…30k+30 make no graph.
func pulseProc() Coroutine {
	return CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			for range 10 {
				if _, err := tr.SendAndReceive(7); err != nil {
					return nil, err
				}
			}
			if _, err := tr.Relay(7, 20, 1, nil); err != nil {
				return nil, err
			}
		}
	})
}

// generatorFrom runs procs for rounds rounds on the production runner and
// returns the round from which the run's generator made graphs, 0 if it
// started none.
func generatorFrom(t *testing.T, cfg Config, procs []Coroutine, rounds int) int {
	t.Helper()
	cfg.MaxRounds = rounds
	r := newRunner(context.Background(), cfg, len(procs))
	res, err := r.run(procs)
	if !errors.Is(err, ErrMaxRounds) || res.Rounds != rounds {
		t.Errorf("run ended after %d rounds with %v, want %d rounds and ErrMaxRounds", res.Rounds, err, rounds)
	}
	return r.rt.startedAt
}

// TestPrefetchEngagement pins the rule that starts the generator: a run
// alone on 2 Ps whose rounds are mostly generation starts it at round 257,
// or, if round 256 falls in a quiet stretch, after the first routed round
// past it; a run shorter than 256 rounds, one whose rounds are mostly
// protocol work, or one whose graphs cost less than a handoff never does.
func TestPrefetchEngagement(t *testing.T) {
	const us = time.Microsecond
	same := func(d time.Duration) []time.Duration {
		s := make([]time.Duration, sampleRounds/sampleEvery)
		for i := range s {
			s[i] = d
		}
		return s
	}
	stalled := same(us) // 1 µs graphs, one sample caught in a 10 ms stall
	stalled[3] = 10 * time.Millisecond
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		wall    time.Duration
		want    bool
	}{
		{"generation-bound", same(20 * us), 256 * 21 * us, true},
		{"a fifth of the rounds", same(20 * us), 256 * 100 * us, false},
		{"1 µs graphs", same(us), 256 * 1500 * time.Nanosecond, false},
		{"1 µs graphs and a stall", stalled, 256*1500*time.Nanosecond + 10*time.Millisecond, false},
	} {
		if got := generationBound(tc.samples, tc.wall); got != tc.want {
			t.Errorf("%s: generationBound = %v, want %v", tc.name, got, tc.want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	slow := slowSchedule{dynnet.NewStatic(dynnet.Cycle(3)), 50 * us}
	spinners := func() []Coroutine { return []Coroutine{spinner(), spinner(), spinner()} }

	// The rule reads the wall clock, so a host that stalls the run for
	// longer than its first 256 rounds can hide their generation share;
	// a run gets three tries to show it.
	from := 0
	for try := 0; try < 3 && from == 0; try++ {
		from = generatorFrom(t, Config{Schedule: slow}, spinners(), 300)
	}
	if from != sampleRounds+1 {
		t.Errorf("generation-bound run: generator from round %d, want %d", from, sampleRounds+1)
	}
	// Round 256 lies in the quiet stretch 251–270, so the run decides at
	// round 271, from 5 samples of its 91 inline graphs.
	from = 0
	for try := 0; try < 3 && from == 0; try++ {
		pulses := []Coroutine{pulseProc(), pulseProc(), pulseProc()}
		from = generatorFrom(t, Config{Schedule: slow, Priority: decadePriority}, pulses, 300)
	}
	if from != 272 {
		t.Errorf("generation-bound run with quiet stretches: generator from round %d, want 272", from)
	}
	if from := generatorFrom(t, Config{Schedule: slow}, spinners(), sampleRounds-1); from != 0 {
		t.Errorf("%d-round run started a generator at round %d", sampleRounds-1, from)
	}
	busy := []Coroutine{busyProc(20 * us), busyProc(0), busyProc(0)}
	if from := generatorFrom(t, Config{Schedule: dynnet.NewStatic(dynnet.Cycle(3))}, busy, 300); from != 0 {
		t.Errorf("protocol-bound run started a generator at round %d", from)
	}
	// Half-microsecond graphs are about half a spinner round's time, so
	// here the 2 µs floor is what keeps the generator off.
	cheap := slowSchedule{dynnet.NewStatic(dynnet.Cycle(3)), us / 2}
	if from := generatorFrom(t, Config{Schedule: cheap}, spinners(), 300); from != 0 {
		t.Errorf("run over 0.5 µs graphs started a generator at round %d", from)
	}
	if c := busyCores.Load(); c != 0 {
		t.Errorf("busy-core count %d after every run returned, want 0", c)
	}
}

// TestPrefetchOneGeneratorPerSpareCore pins the spare-core half of the
// rule: two generation-bound runs in flight together on 2 Ps start at most
// one generator between them.
func TestPrefetchOneGeneratorPerSpareCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var both sync.WaitGroup
	both.Add(2)
	meet := func(round int, _ []Message) {
		if round == 1 {
			both.Done()
			both.Wait()
		}
	}
	from := make(chan int, 2)
	for range 2 {
		go func() {
			cfg := Config{
				Schedule: slowSchedule{dynnet.NewStatic(dynnet.Cycle(3)), 20 * time.Microsecond},
				Trace:    meet,
			}
			from <- generatorFrom(t, cfg, []Coroutine{spinner(), spinner(), spinner()}, 300)
		}()
	}
	if a, b := <-from, <-from; a > 0 && b > 0 {
		t.Fatalf("two concurrent runs on 2 Ps both started a generator (rounds %d and %d)", a, b)
	}
	if c := busyCores.Load(); c != 0 {
		t.Errorf("busy-core count %d after every run returned, want 0", c)
	}
}

// TestPrefetchSteadyStateAllocs pins a prefetched round at zero
// allocations, the generator's included, once every ring slot and both
// delivery backings have grown.
func TestPrefetchSteadyStateAllocs(t *testing.T) {
	const n = 8
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(n)), MaxRounds: 1 << 30}
	rt := newRouter(&cfg, n)
	rt.prefetchAll = true
	rt.open()
	defer rt.close()
	state := make([]procState, n)
	pending := make([]Message, n)
	for pid := range state {
		state[pid] = stateWaiting
		pending[pid] = pid
	}
	res := &Result{}
	route := func() {
		if _, err := rt.route(state, pending, res); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * ringSize {
		route()
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("a prefetched round allocated %.2f objects, want 0", allocs)
	}
	if rt.startedAt != 1 {
		t.Fatalf("generator started at round %d, want 1", rt.startedAt)
	}
}
