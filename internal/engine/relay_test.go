package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"anondyn/internal/dynnet"
)

// The relay contract (DESIGN.md decision 17): the runner's router-side
// Relay must be indistinguishable from the coordinator oracle's stepwise
// Relay — one sendAndReceive per round, deliveries folded in inbox order —
// in every Result field and in the Trace stream.

// decadePriority ranks int messages by their tens digit, so messages of one
// decade tie and a fold must keep the first of them it meets.
func decadePriority(a, b Message) int { return a.(int)/10 - b.(int)/10 }

// wakeTop wakes a relay once its fold reaches the top decade.
func wakeTop(m Message) bool { return m.(int) >= 40 }

// relayProc is a deterministic toy protocol mixing Relay and
// SendAndReceive: process pid draws its actions from its own seeded
// stream — plain rounds, and relays with random steps, hold ∈ {1, 2, 3}
// and an optional early wake — and returns a checksum of everything it
// received and every relay result. Lifetimes differ, so processes return
// while others are mid-relay. Each submission — a SendAndReceive, or a
// Relay of at least one step — increments *subs, if subs is not nil.
func relayProc(pid int, seed uint64, subs *int) Coroutine {
	submit := func() {
		if subs != nil {
			*subs++
		}
	}
	return CoroutineFunc(func(t *Transport) (any, error) {
		rng := rand.New(rand.NewPCG(seed, uint64(pid)))
		sum := 0
		for a := 4 + rng.IntN(6); a > 0; a-- {
			msg := rng.IntN(50)
			if rng.IntN(3) == 0 {
				submit()
				in, err := t.SendAndReceive(msg)
				if err != nil {
					return nil, err
				}
				for _, m := range in {
					sum = sum*31 + m.(int)
				}
				continue
			}
			steps := rng.IntN(7)
			var wake func(Message) bool
			switch rng.IntN(4) {
			case 0:
				wake = wakeTop
			case 1:
				// No step limit: only the wake ends the relay (or the run).
				wake, steps = wakeTop, math.MaxInt
			}
			if steps > 0 {
				submit()
			}
			got, err := t.Relay(msg, steps, 1+rng.IntN(3), wake)
			if err != nil {
				return nil, err
			}
			sum = sum*31 + got.(int) + 7*t.Round()
		}
		return sum, nil
	})
}

// messySchedule serves a fresh random multigraph every round: random
// links with multiplicities 1–2 plus random self-loops, connected or not.
func messySchedule(n int, p float64, seed uint64) dynnet.Schedule {
	return dynnet.NewFunc(n, func(round int) *dynnet.Multigraph {
		rng := rand.New(rand.NewPCG(seed, uint64(round)))
		g := dynnet.NewMultigraph(n)
		for u := 0; u < n; u++ {
			if rng.Float64() < 0.2 {
				g.MustAddLink(u, u, 1)
			}
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustAddLink(u, v, 1+rng.IntN(2))
				}
			}
		}
		return g
	})
}

// runRelays executes relayProc on every process on the given path, with
// the priority order, a size accounting and a Trace capture installed,
// counting the submissions into *subs if subs is not nil.
func runRelays(ctx context.Context, run runFunc, cfg Config, seed uint64, subs *int) (*Result, []string, error) {
	log, hook := captureTrace()
	if cfg.Trace == nil {
		cfg.Trace = hook
	} else {
		inner := cfg.Trace
		cfg.Trace = func(round int, sent []Message) {
			hook(round, sent)
			inner(round, sent)
		}
	}
	cfg.Priority = decadePriority
	if cfg.SizeOf == nil {
		cfg.SizeOf = relaySize
	}
	n := scheduleN(cfg)
	procs := make([]Coroutine, n)
	for pid := range procs {
		procs[pid] = relayProc(pid, seed, subs)
	}
	res, err := run(ctx, cfg, procs)
	return res, *log, err
}

// relaySize is relayProc's message size: it differs between messages of
// one decade, so a relayed copy that lost its size would miscount.
func relaySize(m Message) int { return m.(int)%13 + 3 }

func scheduleN(cfg Config) int {
	if cfg.Adaptive != nil {
		return cfg.Adaptive.N()
	}
	return cfg.Schedule.N()
}

// statelessRotPath is rotPathAdaptive, whose Graph keeps no state between
// calls, declaring so: the runner may skip its quiet rounds.
type statelessRotPath struct{ rotPathAdaptive }

func (statelessRotPath) Stateless() bool { return true }

// TestRelayMatchesStepwise sweeps n × graph density × seed, plus the
// adaptive adversary with and without the stateless declaration, and
// requires the runner and the stepwise oracle to agree byte for byte. A
// relay that waits for a wake that never comes runs into the round budget,
// identically on both paths. Over all its cases, every family but the
// undeclared adversary must jump quiet stretches, and that one none. The
// stop subtests pin the other ways a run ends with processes parked
// mid-relay.
func TestRelayMatchesStepwise(t *testing.T) {
	t.Run("stop", testRelayStops)
	ns, seeds := []int{1, 2, 5, 9, 16}, []uint64{1, 2, 3}
	cases, quiet := map[string]int{}, map[string]int{}
	for _, n := range ns {
		for _, seed := range seeds {
			families := []struct {
				name string
				cfg  func() Config
			}{
				{"sparse", func() Config { return Config{Schedule: messySchedule(n, 0.15, seed)} }},
				{"dense", func() Config { return Config{Schedule: messySchedule(n, 0.8, seed)} }},
				{"path", func() Config { return Config{Schedule: dynnet.NewStatic(dynnet.Path(n))} }},
				{"random-connected", func() Config { return Config{Schedule: dynnet.NewRandomConnected(n, 0.3, int64(seed))} }},
				{"adaptive", func() Config { return Config{Adaptive: rotPathAdaptive{n: n}} }},
				{"adaptive-stateless", func() Config { return Config{Adaptive: statelessRotPath{rotPathAdaptive{n: n}}} }},
			}
			for _, fam := range families {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", fam.name, n, seed), func(t *testing.T) {
					var want *Result
					var wantTrace []string
					var wantErr error
					for i, p := range runPaths {
						cfg := fam.cfg()
						cfg.MaxRounds = 300
						res, trace, err := runRelays(context.Background(), p.run, cfg, seed, nil)
						if err != nil && !errors.Is(err, ErrMaxRounds) {
							t.Fatalf("%s: %v", p.name, err)
						}
						if i == 0 {
							want, wantTrace, wantErr = res, trace, err
							cases[fam.name]++
							quiet[fam.name] += res.QuietRounds
							continue
						}
						if err != wantErr {
							t.Errorf("errors differ: reference %v, %s %v", wantErr, p.name, err)
						}
						assertSameRun(t, p.name, want, res, wantTrace, trace)
					}
				})
			}
		}
	}
	for fam, c := range cases {
		if q := quiet[fam]; c == len(ns)*len(seeds) && (q > 0) != (fam != "adaptive") {
			t.Errorf("%s: %d quiet rounds over all cases", fam, q)
		}
	}
}

// testRelayStops pins the stop paths with processes parked mid-relay:
// StopWhen, the round budget, the bit limit and a mid-run cancellation must
// end both paths at the same round with the same partial Result and error.
func testRelayStops(t *testing.T) {
	const n, seed = 7, 5
	cases := []struct {
		name string
		cfg  func(cancel context.CancelFunc) Config
		want func(error) bool
	}{
		{"stop-when", func(context.CancelFunc) Config {
			return Config{StopWhen: func(out map[int]any) bool { return len(out) >= 2 }}
		}, func(err error) bool { return err == nil }},
		{"max-rounds", func(context.CancelFunc) Config {
			return Config{MaxRounds: 9}
		}, func(err error) bool { return errors.Is(err, ErrMaxRounds) }},
		{"bit-limit", func(context.CancelFunc) Config {
			return Config{BitLimit: 14}
		}, func(err error) bool {
			// The round and pid of sizing every sent message every round:
			// an oversized message is caught in the round it is submitted.
			var ble *BitLimitError
			return errors.As(err, &ble) && ble.Round == 11 && ble.Process == 6
		}},
		{"cancel", func(cancel context.CancelFunc) Config {
			return Config{Trace: func(round int, _ []Message) {
				if round == 6 {
					cancel()
				}
			}}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want *Result
			var wantTrace []string
			var wantErr error
			for i, p := range runPaths {
				ctx, cancel := context.WithCancel(context.Background())
				cfg := tc.cfg(cancel)
				cfg.Schedule = messySchedule(n, 0.4, seed)
				if cfg.MaxRounds == 0 {
					cfg.MaxRounds = 1000
				}
				res, trace, err := runRelays(ctx, p.run, cfg, seed, nil)
				cancel()
				if !tc.want(err) {
					t.Fatalf("%s: err = %v", p.name, err)
				}
				if i == 0 {
					want, wantTrace, wantErr = res, trace, err
					continue
				}
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("errors differ: reference %v, %s %v", wantErr, p.name, err)
				}
				assertSameRun(t, p.name, want, res, wantTrace, trace)
			}
		})
	}
}

// TestRelaySizesEachSubmissionOnce: the runner sizes a message once, when
// it is submitted, and a relayed copy brings its size along, so SizeOf is
// called once per submission, while TotalBits and MaxMessageBits still
// match the stepwise oracle, which submits, and so sizes, every message in
// every round.
func TestRelaySizesEachSubmissionOnce(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16} {
		for _, seed := range []uint64{1, 2, 3} {
			families := []struct {
				name string
				cfg  func() Config
			}{
				{"sparse", func() Config { return Config{Schedule: messySchedule(n, 0.15, seed)} }},
				{"dense", func() Config { return Config{Schedule: messySchedule(n, 0.8, seed)} }},
				{"adaptive", func() Config { return Config{Adaptive: rotPathAdaptive{n: n}} }},
			}
			for _, fam := range families {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", fam.name, n, seed), func(t *testing.T) {
					subs, calls := 0, 0
					cfg := fam.cfg()
					cfg.MaxRounds = 300
					cfg.SizeOf = func(m Message) int { calls++; return relaySize(m) }
					res, trace, err := runRelays(context.Background(), RunContext, cfg, seed, &subs)
					if err != nil && !errors.Is(err, ErrMaxRounds) {
						t.Fatal(err)
					}
					if calls != subs {
						t.Errorf("SizeOf called %d times for %d submissions (%d messages sent)", calls, subs, res.TotalMessages)
					}
					cfg = fam.cfg()
					cfg.MaxRounds = 300
					want, wantTrace, _ := runRelays(context.Background(), runCoordinator, cfg, seed, nil)
					assertSameRun(t, "runner", want, res, wantTrace, trace)
				})
			}
		}
	}
}

// TestRelayNeedsPriority: a run without Config.Priority fails the relaying
// process on every path instead of relaying unordered.
func TestRelayNeedsPriority(t *testing.T) {
	for _, p := range runPaths {
		procs := []Coroutine{CoroutineFunc(func(t *Transport) (any, error) {
			return t.Relay(1, 3, 1, nil)
		})}
		_, err := p.run(context.Background(), Config{
			Schedule:  dynnet.NewStatic(dynnet.Path(1)),
			MaxRounds: 10,
		}, procs)
		if !errors.Is(err, errNoPriority) {
			t.Fatalf("%s: err = %v, want errNoPriority", p.name, err)
		}
	}
}

// TestRelaySteadyStateAllocs pins a relaying round at zero allocations:
// the fold compares ranks, and a round with no new submission ranks
// nothing.
func TestRelaySteadyStateAllocs(t *testing.T) {
	const n = 16
	cfg := Config{
		Schedule:  dynnet.NewStatic(dynnet.Cycle(n)),
		MaxRounds: 1 << 30,
		Priority:  decadePriority,
	}
	rt := newRouter(&cfg, n)
	state := make([]procState, n)
	pending := make([]Message, n)
	for pid := range state {
		state[pid] = stateRelaying
		pending[pid] = pid
		rt.startRelay(pid, pending[pid], math.MaxInt, 1, nil)
	}
	res := &Result{}
	if _, err := rt.route(state, pending, res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rt.route(state, pending, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a relaying round allocated %.1f objects, want 0", allocs)
	}
}
