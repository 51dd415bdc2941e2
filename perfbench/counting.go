package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// countingWorkload drives one counting entry point — core.Run,
// core.RunAdaptive against the Isolator, or linear.Run — over a list of
// inputs derived from the workload seed.
type countingWorkload struct {
	n        int
	cases    int  // inputs per seed list
	linear   bool // linear.Run instead of the congested protocol
	isolator bool // core.RunAdaptive against adversary.Isolator

	list []countingCase
}

// countingCase is one generated input: the leader's position and, for the
// oblivious workloads, the random schedule.
type countingCase struct {
	inputs []historytree.Input
	leader int
	sched  dynnet.Schedule // nil under the isolator
}

// exact holds the counts of a run that must repeat exactly, across
// repeats of one input and between traced and untraced runs.
type exact struct {
	protocol                  protocolCounts
	forks                     int
	sharedApplies, sharedHits int64
}

// protocolCounts are the counts of the protocol itself. Under the isolator
// they must also repeat across leader positions: relabeling the leader
// must not change an anonymous protocol's run. The sharing counters may,
// since which process applies a shared operation first follows process
// order.
type protocolCounts struct {
	rounds, maxBits, resets, levels, solverCalls int
	messages, bits                               int64
}

func exactOf(st core.RunStats) exact {
	return exact{
		protocol: protocolCounts{
			rounds: st.Rounds, maxBits: st.MaxMessageBits, resets: st.Resets,
			levels: st.Levels, solverCalls: st.SolverCalls,
			messages: st.TotalMessages, bits: st.TotalBits,
		},
		forks: st.SharedForks, sharedApplies: st.SharedApplies, sharedHits: st.SharedHits,
	}
}

func (w *countingWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	w.list = make([]countingCase, w.cases)
	for i := range w.list {
		w.list[i] = w.newCase(rng.IntN(w.n), rng.Int64())
	}
	// The warm-up input is the same for every seed, so that set-up time
	// does not depend on which input the seed drew first.
	warm := w.newCase(0, 0)
	_, _, err := w.runCase(&warm, nil)
	return err
}

// newCase places the leader and, for the oblivious workloads, draws the
// random schedule from schedSeed.
func (w *countingWorkload) newCase(leader int, schedSeed int64) countingCase {
	c := countingCase{inputs: make([]historytree.Input, w.n), leader: leader}
	c.inputs[leader].Leader = true
	if !w.isolator {
		c.sched = dynnet.NewRandomConnected(w.n, 0.3, schedSeed)
	}
	return c
}

// runCase runs one input, traced when tr is non-nil: the schedule or
// adversary is wrapped to time its Graph calls and tr's hook observes
// every round.
func (w *countingWorkload) runCase(c *countingCase, tr *tracer) (*core.RunResult, time.Duration, error) {
	var opts core.RunOptions
	sched := c.sched
	var adv engine.AdaptiveSchedule
	if w.isolator {
		adv = adversary.NewIsolator(w.n, c.leader)
	}
	if tr != nil {
		tr.last = time.Time{}
		opts.Trace = tr.hook
		if sched != nil {
			sched = timeSchedule(sched, &tr.graph)
		}
		if adv != nil {
			adv = timedAdversary{inner: adv, busy: &tr.adv}
		}
	}
	// The configurations the daemon derives for a plain leader-mode spec.
	cfg := core.Config{Mode: core.ModeLeader, MaxLevels: 3*w.n + 8}
	start := time.Now()
	var res *core.RunResult
	var err error
	switch {
	case w.linear:
		res, err = linear.Run(sched, c.inputs, linear.Config{Mode: cfg.Mode, MaxLevels: cfg.MaxLevels}, opts)
	case adv != nil:
		res, err = core.RunAdaptive(adv, c.inputs, cfg, opts)
	default:
		res, err = core.Run(sched, c.inputs, cfg, opts)
	}
	return res, time.Since(start), err
}

// verify checks a run's count and multiset against ground truth.
func verify(c *countingCase, res *core.RunResult, err error) error {
	if err != nil {
		return err
	}
	return check.VerifyAnswer(c.inputs, res)
}

func (w *countingWorkload) run(d time.Duration) tally {
	t := tally{m: metrics{}}
	ref := make([]*exact, len(w.list))
	var times []time.Duration
	var rounds int64
	start := time.Now()
	for i := 0; i < len(w.list) || time.Since(start) < d; i++ {
		k := i % len(w.list)
		res, took, err := w.runCase(&w.list[k], nil)
		t.attempted++
		if err = verify(&w.list[k], res, err); err == nil {
			err = w.matchRef(ref, k, exactOf(res.Stats))
		}
		if err != nil {
			t.fail(fmt.Errorf("case %d: %w", k, err))
			continue
		}
		times = append(times, took)
		rounds += int64(res.Stats.Rounds)
	}

	var runRounds, runBits float64
	maxBits, cases := 0, 0
	for _, e := range ref {
		if e == nil {
			continue
		}
		cases++
		runRounds += float64(e.protocol.rounds)
		runBits += float64(e.protocol.bits)
		maxBits = max(maxBits, e.protocol.maxBits)
	}
	cases = max(cases, 1)
	total := sum(times).Seconds()
	ms := durations(times, time.Millisecond)
	t.m.set("run_s_p50", median(durations(times, time.Second)), "s")
	t.m.set("rounds_per_s", ratio(float64(rounds), total), "rounds/s")
	t.m.set("rounds_per_run", runRounds/float64(cases), "rounds")
	t.m.set("max_msg_bits", float64(maxBits), "bits")
	t.m.set("bits_per_run", runBits/float64(cases), "bits")
	t.m.set("jobs_per_s", ratio(float64(len(times)), total), "jobs/s")
	t.m.set("job_ms_p50", median(ms), "ms")
	t.m.set("job_ms_p99", tail(ms), "ms")
	return t
}

// matchRef records e as case k's exact counts, or checks it against the
// counts already recorded for case k and, under the isolator, against the
// protocol counts of case 0.
func (w *countingWorkload) matchRef(ref []*exact, k int, e exact) error {
	if ref[k] != nil && *ref[k] != e {
		return fmt.Errorf("exact counts %+v differ from an earlier run's %+v", e, *ref[k])
	}
	if w.isolator && ref[0] != nil && ref[0].protocol != e.protocol {
		return fmt.Errorf("protocol counts %+v differ from case 0's %+v", e.protocol, ref[0].protocol)
	}
	ref[k] = &e
	return nil
}

// trace runs each input twice, untraced then traced, checks that both runs
// produce the same exact counts, and reports the traced runs' per-layer
// breakdown.
func (w *countingWorkload) trace(d time.Duration) tally {
	t := tally{m: metrics{}}
	// The linear protocol's messages are opaque outside internal/linear
	// (it sizes each view once, at send time), so only congested messages
	// are re-sized.
	tr := &tracer{}
	if !w.linear {
		tr.sizer = core.SizeOf
	}
	var plain, traced, solve time.Duration
	var runs, calls, primes, witness, peak, resets, levels, forks int
	var messages, bits, applies, hits int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		c := &w.list[i%len(w.list)]
		res0, took0, err0 := w.runCase(c, nil)
		res1, took1, err1 := w.runCase(c, tr)
		t.attempted += 2
		err0 = verify(c, res0, err0)
		if err0 != nil {
			t.fail(fmt.Errorf("case %d untraced: %w", i%len(w.list), err0))
		}
		err1 = verify(c, res1, err1)
		if err1 == nil && err0 == nil && exactOf(res0.Stats) != exactOf(res1.Stats) {
			err1 = fmt.Errorf("counts %+v differ from untraced %+v", exactOf(res1.Stats), exactOf(res0.Stats))
		}
		if err1 != nil {
			t.fail(fmt.Errorf("case %d traced: %w", i%len(w.list), err1))
		}
		if err0 != nil || err1 != nil {
			continue
		}
		runs++
		plain += took0
		traced += took1
		st := res1.Stats
		sv := res1.Outputs[c.leader].Solver
		solve += sv.SolveTime
		calls += sv.Calls
		primes += sv.PrimesUsed
		witness += sv.WitnessFallbacks
		if res1.VHT != nil {
			peak += res1.VHT.PeakResidentNodes()
		}
		resets += st.Resets
		levels += st.Levels
		forks += st.SharedForks
		messages += st.TotalMessages
		bits += st.TotalBits
		applies += st.SharedApplies
		hits += st.SharedHits
	}
	if runs == 0 {
		return t
	}
	perRun := func(x float64) float64 { return x / float64(runs) }
	run := perRun(traced.Seconds())
	graph, adv, solveS := perRun(tr.graph.Seconds()), perRun(tr.adv.Seconds()), perRun(solve.Seconds())
	us := durations(tr.gaps, time.Microsecond)

	t.m.set("bench.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1, "fraction")
	t.m.set("bench.run_s", run, "s")
	t.m.set("dynnet.graph_s", graph, "s")
	t.m.set("dynnet.graph_share", graph/run, "fraction")
	t.m.set("adversary.graph_s", adv, "s")
	t.m.set("adversary.graph_share", adv/run, "fraction")
	t.m.set("engine.round_us_p50", median(us), "us")
	t.m.set("engine.round_us_p99", tail(us), "us")
	t.m.set("engine.messages_per_run", perRun(float64(messages)), "count")
	if tr.sizer != nil {
		t.m.set("wire.sizeof_s", perRun(tr.sizeof.Seconds()), "s")
	}
	t.m.set("wire.bits_per_msg", ratio(float64(bits), float64(messages)), "bits")
	t.m.set("historytree.solve_s", solveS, "s")
	t.m.set("historytree.solve_calls", perRun(float64(calls)), "count")
	t.m.set("historytree.primes", perRun(float64(primes)), "count")
	t.m.set("historytree.witness_falls", perRun(float64(witness)), "count")
	t.m.set("historytree.peak_resident_nodes", perRun(float64(peak)), "count")
	t.m.set("core.resets", perRun(float64(resets)), "count")
	t.m.set("core.levels", perRun(float64(levels)), "count")
	t.m.set("core.shared_hit_ratio", ratio(float64(hits), float64(hits+applies)), "fraction")
	t.m.set("core.shared_forks", perRun(float64(forks)), "count")
	// What outside timing cannot split further: the parts sum to bench.run_s.
	if w.linear {
		t.m.set("linear.view_s", run-graph-solveS, "s")
	} else {
		t.m.set("core.protocol_s", run-graph-adv-solveS, "s")
	}
	return t
}

// tracer is the traced run's observer: the Trace round hook plus the
// accumulators of the timing decorators.
type tracer struct {
	sizer func(engine.Message) int // nil: the hook does not re-size

	graph, adv, sizeof time.Duration
	gaps               []time.Duration // between consecutive Trace callbacks
	last               time.Time       // end of the previous callback in this run
}

// hook is the RunOptions.Trace callback. The gap it records runs from the
// end of the previous callback to the start of this one, so it excludes
// the hook's own re-sizing of the round's messages.
func (t *tracer) hook(_ int, sent []engine.Message) {
	now := time.Now()
	if !t.last.IsZero() {
		t.gaps = append(t.gaps, now.Sub(t.last))
	}
	if t.sizer != nil {
		for _, m := range sent {
			t.sizer(m)
		}
	}
	t.last = time.Now()
	t.sizeof += t.last.Sub(now)
}

// timeSchedule wraps s so that its Graph (and GraphInto) calls add their
// duration to *busy. The wrapper implements dynnet.InPlaceSchedule exactly
// when s does: the engine picks its allocation-free path by that
// interface, and a traced run must take the same path as an untraced one.
func timeSchedule(s dynnet.Schedule, busy *time.Duration) dynnet.Schedule {
	ts := timedSchedule{inner: s, busy: busy}
	if ip, ok := s.(dynnet.InPlaceSchedule); ok {
		return timedInPlace{timedSchedule: ts, inPlace: ip}
	}
	return ts
}

type timedSchedule struct {
	inner dynnet.Schedule
	busy  *time.Duration
}

// N implements dynnet.Schedule.
func (s timedSchedule) N() int { return s.inner.N() }

// Graph implements dynnet.Schedule, timed.
func (s timedSchedule) Graph(t int) *dynnet.Multigraph {
	start := time.Now()
	g := s.inner.Graph(t)
	*s.busy += time.Since(start)
	return g
}

type timedInPlace struct {
	timedSchedule
	inPlace dynnet.InPlaceSchedule
}

// GraphInto implements dynnet.InPlaceSchedule, timed.
func (s timedInPlace) GraphInto(t int, g *dynnet.Multigraph) {
	start := time.Now()
	s.inPlace.GraphInto(t, g)
	*s.busy += time.Since(start)
}

// timedAdversary adds the duration of each Graph call of an adaptive
// adversary to *busy.
type timedAdversary struct {
	inner engine.AdaptiveSchedule
	busy  *time.Duration
}

// N implements engine.AdaptiveSchedule.
func (a timedAdversary) N() int { return a.inner.N() }

// Graph implements engine.AdaptiveSchedule, timed.
func (a timedAdversary) Graph(round int, sent []engine.Message) *dynnet.Multigraph {
	start := time.Now()
	g := a.inner.Graph(round, sent)
	*a.busy += time.Since(start)
	return g
}
