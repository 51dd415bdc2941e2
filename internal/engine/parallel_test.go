package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// withShards raises GOMAXPROCS for the duration of a test so the parallel
// scheduler actually splits the ring into several shards. The CI and
// container hosts often run single-core, where min(GOMAXPROCS, n) = 1 and
// the parallel scheduler degenerates to the inline shard and every
// multi-shard code path — cross-shard barrier ordering, per-shard merging,
// worker release — would otherwise go untested.
func withShards(t *testing.T, workers int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelShardSplit pins that the runner genuinely shards: asked for 4
// workers over 9 processes it must create 4 contiguous worker shards
// covering the ring exactly once, and asked for one (SchedulerSequential)
// a single inline shard with no worker channel.
func TestParallelShardSplit(t *testing.T) {
	r := newRunner(context.Background(), Config{}, 9, 4)
	if len(r.shards) != 4 {
		t.Fatalf("got %d shards for 9 procs and 4 workers, want 4", len(r.shards))
	}
	lo := 0
	for i, sh := range r.shards {
		if sh.cmd == nil {
			t.Fatalf("shard %d of 4 has no worker channel", i)
		}
		if sh.lo != lo {
			t.Fatalf("shard %d starts at %d, want %d (contiguous cover)", i, sh.lo, lo)
		}
		if sh.hi <= sh.lo {
			t.Fatalf("shard %d is empty: [%d,%d)", i, sh.lo, sh.hi)
		}
		lo = sh.hi
	}
	if lo != 9 {
		t.Fatalf("shards cover [0,%d), want [0,9)", lo)
	}
	// More workers than processes must clamp to one process per shard.
	r = newRunner(context.Background(), Config{}, 2, 4)
	if len(r.shards) != 2 {
		t.Fatalf("got %d shards for 2 procs, want 2", len(r.shards))
	}
	// One worker is the inline shard: the whole ring, no worker goroutine.
	r = newRunner(context.Background(), Config{}, 9, 1)
	if len(r.shards) != 1 || r.shards[0].lo != 0 || r.shards[0].hi != 9 || r.shards[0].cmd != nil {
		t.Fatalf("one-worker runner: shards %+v, want one inline shard [0,9)", r.shards)
	}
}

// TestParallelMultiShardEquivalence re-runs the scheduler equivalence
// contract through the public SchedulerParallel entry point with
// GOMAXPROCS raised to 4, so the production shard sizing genuinely splits
// the ring and the cross-shard merge and barrier ordering are exercised.
func TestParallelMultiShardEquivalence(t *testing.T) {
	withShards(t, 4)
	parallel := func(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error) {
		cfg.Scheduler = SchedulerParallel
		return RunContext(ctx, cfg, procs)
	}
	for _, n := range []int{4, 9, 16} {
		cfg := func() Config {
			return Config{Schedule: dynnet.NewRandomConnected(n, 0.4, int64(n)), MaxRounds: 100}
		}
		seqRes, seqTrace, err := runUnder(t, RunContext, cfg(), n, 5)
		if err != nil {
			t.Fatalf("n=%d sequential: %v", n, err)
		}
		parRes, parTrace, err := runUnder(t, parallel, cfg(), n, 5)
		if err != nil {
			t.Fatalf("n=%d parallel: %v", n, err)
		}
		assertSameRun(t, "parallel", seqRes, parRes, seqTrace, parTrace)
	}
}

// quietProc sends a constant small int (boxed allocation-free by the
// runtime's small-int cache) and discards everything it receives, so any
// allocation measured during its rounds belongs to the scheduler, not the
// protocol.
func quietProc(rounds int) Coroutine {
	return CoroutineFunc(func(tr *Transport) (any, error) {
		for i := 0; i < rounds; i++ {
			if _, err := tr.SendAndReceive(7); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// TestSchedulerSteadyStateAllocs gates per-round allocations: once the
// router's double-buffered delivery backings have grown to the round's
// working set, additional rounds must be allocation-free on every
// execution path (one inline shard, four worker shards, the oracle). The
// gate is the *difference* between a long and a short run, so per-run setup
// (runner, coroutines, shards) cancels out.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	const extra = 100
	for _, p := range runPaths {
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				procs := make([]Coroutine, 8)
				for pid := range procs {
					procs[pid] = quietProc(rounds)
				}
				cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(8)), MaxRounds: rounds + 1}
				if _, err := p.run(context.Background(), cfg, procs); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
			})
		}
		short := measure(10)
		long := measure(10 + extra)
		perRound := (long - short) / extra
		if perRound > 0.5 {
			t.Errorf("%s: %.2f allocs per steady-state round (short=%.0f long=%.0f), want ~0",
				p.name, perRound, short, long)
		}
	}
}

// TestParallelShardWorkerRelease is the shard-worker goroutine-leak
// regression: after any run outcome — completion, process error, external
// cancellation — every shard worker must have exited. A leaked worker
// would hold its coroutine handles (and their stacks) forever.
func TestParallelShardWorkerRelease(t *testing.T) {
	withShards(t, 4)
	baseline := runtime.NumGoroutine()

	forever := func() Coroutine {
		return CoroutineFunc(func(tr *Transport) (any, error) {
			for {
				if _, err := tr.SendAndReceive(nil); err != nil {
					return nil, err
				}
			}
		})
	}
	boom := CoroutineFunc(func(tr *Transport) (any, error) {
		for i := 0; i < 3; i++ {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
		return nil, errors.New("boom")
	})

	const n = 8
	mk := func(withErr bool) []Coroutine {
		procs := make([]Coroutine, n)
		for pid := range procs {
			if withErr && pid == 5 {
				procs[pid] = boom
			} else if withErr {
				procs[pid] = forever()
			} else {
				procs[pid] = echoProc(4)
			}
		}
		return procs
	}
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(n)), MaxRounds: 1 << 20, Scheduler: SchedulerParallel}

	for i := 0; i < 10; i++ {
		// Normal completion.
		if _, err := Run(cfg, mk(false)); err != nil {
			t.Fatalf("normal run: %v", err)
		}
		// A process error mid-run stops the whole shard set.
		if _, err := Run(cfg, mk(true)); err == nil {
			t.Fatal("error run returned nil error")
		}
		// External cancellation while every worker is parked.
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			procs := make([]Coroutine, n)
			for pid := range procs {
				procs[pid] = forever()
			}
			_, err := RunContext(ctx, cfg, procs)
			done <- err
		}()
		time.Sleep(time.Millisecond)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v", err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard workers leaked: baseline %d goroutines, now %d", baseline, runtime.NumGoroutine())
}
