package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anondyn/internal/dynnet"
)

// The engine equivalence contract (DESIGN.md §6): the production
// runner and the goroutine-per-process coordinator oracle must produce
// byte-identical Results (Rounds, Outputs, MaxMessageBits, TotalMessages,
// TotalBits) and identical Trace streams for any deterministic protocol,
// because they share the routing core and differ only in how control moves
// between the processes and the round barrier.

// runFunc is one coroutine execution path; its signature is RunContext's.
type runFunc func(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error)

// runPaths lists the coroutine execution paths under test. The first is
// the public entry point and is the reference the others are compared
// against.
var runPaths = []struct {
	name string
	run  runFunc
}{
	{"runner", RunContext},
	{"coordinator", runCoordinator},
	{"prefetch", runPrefetched},
}

// runPrefetched is RunContext with an in-place schedule's graphs made by
// the generator from round 1, whatever the run's length, its generation
// share and the spare cores.
func runPrefetched(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error) {
	n, err := cfg.validate(len(procs))
	if err != nil {
		return nil, err
	}
	r := newRunner(ctx, cfg, n)
	r.rt.prefetchAll = true
	return r.run(procs)
}

// mixedProc is a deterministic protocol with per-process lifetimes: process
// pid runs base+pid%3 rounds, sends pid*1000+round, and returns the sorted
// multiset checksum of everything it received.
func mixedProc(pid, base int) Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		rounds := base + pid%3
		sum := 0
		for i := 0; i < rounds; i++ {
			msgs, err := t.SendAndReceive(pid*1000 + i)
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				sum = sum*31 + m.(int)
			}
		}
		return sum, nil
	})
}

// rotPathAdaptive is a reactive test adversary: each round it links the
// still-sending processes into a path whose order rotates with the round,
// so the graph genuinely depends on both the round and the sent slice.
type rotPathAdaptive struct{ n int }

func (a rotPathAdaptive) N() int { return a.n }

func (a rotPathAdaptive) Graph(round int, sent []Message) *dynnet.Multigraph {
	g := dynnet.NewMultigraph(a.n)
	var active []int
	for pid, m := range sent {
		if m != nil {
			active = append(active, pid)
		}
	}
	for i := 1; i < len(active); i++ {
		u := active[(i-1+round)%len(active)]
		v := active[(i+round)%len(active)]
		if u != v {
			g.MustAddLink(u, v, 1)
		}
	}
	return g
}

// captureTrace returns a Trace hook appending each round's sent messages
// (copied) to the returned log.
func captureTrace() (*[]string, func(round int, sent []Message)) {
	log := &[]string{}
	return log, func(round int, sent []Message) {
		*log = append(*log, fmt.Sprintf("%d:%v", round, sent))
	}
}

// runUnder executes the mixed-lifetime protocol on n processes on the given
// execution path and returns the result and trace stream.
func runUnder(t *testing.T, run runFunc, cfg Config, n, base int) (*Result, []string, error) {
	t.Helper()
	log, hook := captureTrace()
	cfg.Trace = hook
	cfg.SizeOf = func(m Message) int { return m.(int)%13 + 3 }
	procs := make([]Coroutine, n)
	for pid := range procs {
		procs[pid] = mixedProc(pid, base)
	}
	res, err := run(context.Background(), cfg, procs)
	return res, *log, err
}

// assertSameRun fails unless the two runs are byte-identical in every
// Result field and in their trace streams; other names the compared path.
func assertSameRun(t *testing.T, other string, want, got *Result, wantTrace, gotTrace []string) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("Rounds: reference %d, %s %d", want.Rounds, other, got.Rounds)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Errorf("Outputs differ:\nreference %v\n%s %v", want.Outputs, other, got.Outputs)
	}
	if want.MaxMessageBits != got.MaxMessageBits {
		t.Errorf("MaxMessageBits: reference %d, %s %d", want.MaxMessageBits, other, got.MaxMessageBits)
	}
	if want.TotalMessages != got.TotalMessages {
		t.Errorf("TotalMessages: reference %d, %s %d", want.TotalMessages, other, got.TotalMessages)
	}
	if want.TotalBits != got.TotalBits {
		t.Errorf("TotalBits: reference %d, %s %d", want.TotalBits, other, got.TotalBits)
	}
	if !reflect.DeepEqual(wantTrace, gotTrace) {
		t.Errorf("Trace streams differ:\nreference %v\n%s %v", wantTrace, other, gotTrace)
	}
}

// TestSchedulerEquivalence sweeps n × schedule family × seed and asserts
// the equivalence contract on full-completion runs.
func TestSchedulerEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 96} {
		for _, seed := range []int64{1, 7} {
			families := []struct {
				name string
				cfg  func() Config
			}{
				{name: "static-cycle", cfg: func() Config {
					return Config{Schedule: dynnet.NewStatic(dynnet.Cycle(n))}
				}},
				{name: "static-complete", cfg: func() Config {
					return Config{Schedule: dynnet.NewStatic(dynnet.Complete(n))}
				}},
				{name: "random-connected", cfg: func() Config {
					return Config{Schedule: dynnet.NewRandomConnected(n, 0.4, seed)}
				}},
				{name: "adaptive-rotating-path", cfg: func() Config {
					return Config{Adaptive: rotPathAdaptive{n: n}}
				}},
			}
			for _, fam := range families {
				// n=96 is there for the random generator, whose rows span
				// two mask words; the other families add nothing at scale.
				if n == 96 && fam.name != "random-connected" {
					continue
				}
				name := fmt.Sprintf("%s/n=%d/seed=%d", fam.name, n, seed)
				t.Run(name, func(t *testing.T) {
					base := 3 + int(seed)
					cfg := fam.cfg()
					cfg.MaxRounds = 100
					seqRes, seqTrace, err := runUnder(t, runPaths[0].run, cfg, n, base)
					if err != nil {
						t.Fatalf("%s: %v", runPaths[0].name, err)
					}
					for _, p := range runPaths[1:] {
						cfg = fam.cfg()
						cfg.MaxRounds = 100
						res, trace, err := runUnder(t, p.run, cfg, n, base)
						if err != nil {
							t.Fatalf("%s: %v", p.name, err)
						}
						assertSameRun(t, p.name, seqRes, res, seqTrace, trace)
					}
				})
			}
		}
	}
}

// TestSchedulerEquivalenceStopWhen pins the StopWhen semantics: process 0
// finishes after three rounds, the rest would run forever, and the run must
// stop with exactly process 0's output on every execution path.
func TestSchedulerEquivalenceStopWhen(t *testing.T) {
	const n = 4
	build := func() []Coroutine {
		procs := make([]Coroutine, n)
		procs[0] = echoProc(3)
		for pid := 1; pid < n; pid++ {
			procs[pid] = CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(tr.PID()); err != nil {
						return nil, err
					}
				}
			})
		}
		return procs
	}
	type outcome struct {
		res   *Result
		trace []string
	}
	got := make([]outcome, len(runPaths))
	for i, p := range runPaths {
		log, hook := captureTrace()
		res, err := p.run(context.Background(), Config{
			Schedule:  dynnet.NewStatic(dynnet.Complete(n)),
			MaxRounds: 100,
			Trace:     hook,
			StopWhen:  func(out map[int]any) bool { _, ok := out[0]; return ok },
		}, build())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(res.Outputs) != 1 {
			t.Fatalf("%s: outputs %v, want only process 0", p.name, res.Outputs)
		}
		got[i] = outcome{res: res, trace: *log}
	}
	for i, p := range runPaths[1:] {
		assertSameRun(t, p.name, got[0].res, got[i+1].res, got[0].trace, got[i+1].trace)
	}
}

// TestSchedulerEquivalenceBitLimit pins the BitLimit semantics: the first
// violating (round, process, bits) is identical on every execution path
// because accounting happens in the shared router.
func TestSchedulerEquivalenceBitLimit(t *testing.T) {
	const n = 3
	var want *BitLimitError
	for _, p := range runPaths {
		procs := make([]Coroutine, n)
		for pid := range procs {
			pid := pid
			procs[pid] = CoroutineFunc(func(tr *Transport) (any, error) {
				for r := 0; ; r++ {
					// Process 1 blows the limit at round 4.
					size := 8
					if pid == 1 && r == 3 {
						size = 100
					}
					if _, err := tr.SendAndReceive(size); err != nil {
						return nil, err
					}
				}
			})
		}
		_, err := p.run(context.Background(), Config{
			Schedule:  dynnet.NewStatic(dynnet.Cycle(n)),
			MaxRounds: 100,
			SizeOf:    func(m Message) int { return m.(int) },
			BitLimit:  50,
		}, procs)
		var ble *BitLimitError
		if !errors.As(err, &ble) {
			t.Fatalf("%s: err=%v, want *BitLimitError", p.name, err)
		}
		if want == nil {
			want = ble
			continue
		}
		if *ble != *want {
			t.Errorf("BitLimitError differs: reference %+v, %s %+v", want, p.name, ble)
		}
	}
	if want.Round != 4 || want.Process != 1 || want.Bits != 100 {
		t.Errorf("unexpected violation %+v", want)
	}
}

// TestSchedulerEquivalencePreCancelled pins the cancellation contract every
// execution path shares: a context cancelled before the run starts fails
// with context.Canceled and zero rounds.
func TestSchedulerEquivalencePreCancelled(t *testing.T) {
	for _, p := range runPaths {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		procs := []Coroutine{echoProc(3), echoProc(3)}
		res, err := p.run(ctx, Config{
			Schedule:  dynnet.NewStatic(dynnet.Path(2)),
			MaxRounds: 10,
		}, procs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err=%v, want context.Canceled", p.name, err)
		}
		if res.Rounds != 0 || len(res.Outputs) != 0 {
			t.Fatalf("%s: partial result %+v, want empty", p.name, res)
		}
	}
}

// TestSchedulerEquivalenceCancelMidRun pins cancellation at a round
// boundary: a context cancelled from the Trace hook of round 5 lets that
// round finish, stops the run before round 6, and returns the partial
// Result alongside context.Canceled on every execution path.
func TestSchedulerEquivalenceCancelMidRun(t *testing.T) {
	const stopAt = 5
	for _, p := range runPaths {
		ctx, cancel := context.WithCancel(context.Background())
		procs := []Coroutine{spinner(), spinner(), spinner()}
		res, err := p.run(ctx, Config{
			Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
			MaxRounds: 1000,
			Trace: func(round int, _ []Message) {
				if round == stopAt {
					cancel()
				}
			},
		}, procs)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err=%v, want context.Canceled", p.name, err)
		}
		if res.Rounds != stopAt {
			t.Fatalf("%s: Rounds=%d, want %d", p.name, res.Rounds, stopAt)
		}
	}
}
