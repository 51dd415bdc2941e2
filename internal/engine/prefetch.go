package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/dynnet"
)

// Schedule generation off the critical path (DESIGN.md decision 18). A
// long run over a pure in-place schedule can hand GraphInto to one
// generator goroutine that fills a ring of graphs ahead of the run; the
// graphs are the same function of the round, so the run is unchanged.
const (
	// ringSize is the number of graphs the generator keeps ahead. Round t
	// lives in slot t mod ringSize.
	ringSize = 16
	// sampleEvery and sampleRounds set the router's engagement sample: it
	// times every sampleEvery-th inline GraphInto call and decides at the
	// first routed round from sampleRounds on. Counting calls rather than
	// rounds keeps the sample whole when quiet stretches skip rounds.
	sampleEvery  = 16
	sampleRounds = 256
	// minGraph is the least typical GraphInto time worth a handoff: below
	// it, waking the generator and reading its graphs from another core
	// cost the router more than making them inline (DESIGN.md decision
	// 18).
	minGraph = 2 * time.Microsecond
	// spinRounds is how many times the router yields, re-checking the
	// ring, before it parks on a generator that has fallen behind. A
	// yield costs about 0.4 µs on a 2-vCPU host, so the spin outlasts the
	// generation of one n=96 graph there (25–36 µs), and the router parks
	// only on a generator that is not running.
	spinRounds = 128
)

// busyCores counts, process-wide, the engine runs in flight plus their
// running generators. A run may start a generator only while the count,
// the generator included, stays within GOMAXPROCS: a run alone on 2 cores
// may, two concurrent runs may not.
var busyCores atomic.Int32

// claimCore reserves a core for a generator if one is spare.
func claimCore() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		c := busyCores.Load()
		if c+1 > procs {
			return false
		}
		if busyCores.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// inPlaceGraph returns the round's graph from an InPlaceSchedule: from the
// generator's ring once it runs, else made inline. Until its decision it
// times every 16th inline call; at the first routed round from 256 on it
// starts the generator, from the next round, if the samples say one pays
// and a core is spare.
func (rt *router) inPlaceGraph() *dynnet.Multigraph {
	switch {
	case rt.pf != nil:
		return rt.pf.graph(rt.round)
	case rt.prefetchAll:
		busyCores.Add(1)
		rt.start(rt.round)
		return rt.pf.graph(rt.round)
	case rt.decided:
		rt.inPlace.GraphInto(rt.round, rt.gbuf)
		return rt.gbuf
	}
	// Every call before the decision is at a round below 256, so the
	// sample never takes more than 16 times.
	rt.calls++
	sample := rt.calls%sampleEvery == 0
	decide := rt.round >= sampleRounds
	if !sample && !decide {
		rt.inPlace.GraphInto(rt.round, rt.gbuf)
		return rt.gbuf
	}
	start := time.Now()
	rt.inPlace.GraphInto(rt.round, rt.gbuf)
	now := time.Now()
	if sample {
		rt.samples[rt.sampled] = now.Sub(start)
		rt.sampled++
	}
	if decide {
		rt.decided = true
		if generationBound(rt.samples[:rt.sampled], now.Sub(rt.t0)) && claimCore() {
			rt.start(rt.round + 1)
		}
	}
	return rt.gbuf
}

// generationBound reports whether the sampled inline graphs say that the
// run so far, which took wall, was bound by generation: their total, scaled
// up to every call, is at least a quarter of the wall time, and their median
// is at least minGraph. The median keeps one stall inside a sampled call
// from passing for graphs worth a handoff. It sorts samples; with none,
// there is nothing to go by.
func generationBound(samples []time.Duration, wall time.Duration) bool {
	if len(samples) == 0 {
		return false
	}
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	slices.Sort(samples)
	return 4*sampleEvery*total >= wall && samples[len(samples)/2] >= minGraph
}

// start starts the run's generator, which makes the graphs of rounds
// from, from+1, … . The caller has counted it in busyCores.
func (rt *router) start(from int) {
	p := prefetchers.Get().(*prefetcher)
	p.sched = rt.inPlace
	p.made.Store(int64(from - 1))
	p.taken.Store(int64(from - 1))
	p.exited.Add(1)
	go p.generate(from)
	rt.pf, rt.startedAt = p, from
}

// open counts the run among the busy cores and starts the engagement
// sample's clock; close stops its generator, if it started one, and waits
// for it to exit, then uncounts both. A run calls open before its first
// round and close on every exit path, so Run never returns with a
// generator behind it.
func (rt *router) open() {
	busyCores.Add(1)
	rt.t0 = time.Now()
}

func (rt *router) close() {
	if rt.pf != nil {
		rt.pf.stop()
		rt.pf = nil
		busyCores.Add(-1)
	}
	busyCores.Add(-1)
}

// prefetcher is one run's generator and its ring. The generator goroutine
// is the only writer of made and of the ring slots ahead of the run; the
// router is the only writer of taken. Each side parks on its own
// one-token channel after publishing a parked flag and re-checking the
// other side's counter, and a wake is sent only by whoever clears that
// flag, so no wake is lost and none is left over.
type prefetcher struct {
	sched dynnet.InPlaceSchedule
	ring  [ringSize]*dynnet.Multigraph

	made  atomic.Int64 // last round generated
	taken atomic.Int64 // last round the router is done with
	quit  atomic.Bool

	genParked, rtParked atomic.Bool
	genWake, rtWake     chan struct{}
	exited              sync.WaitGroup
}

// prefetchers pools the ring and its channels, so a prefetched run
// allocates nothing per round once the ring's link arrays have grown.
var prefetchers = sync.Pool{New: func() any {
	p := &prefetcher{
		genWake: make(chan struct{}, 1),
		rtWake:  make(chan struct{}, 1),
	}
	for i := range p.ring {
		p.ring[i] = dynnet.NewMultigraph(0)
	}
	return p
}}

// generate fills the ring until told to quit. It parks only when the ring
// is full and is woken once half of it is free. A router that jumped a
// quiet stretch has passed rounds not yet made; the generator skips them.
func (p *prefetcher) generate(from int) {
	defer p.exited.Done()
	for t := int64(from); ; t++ {
		for t-ringSize > p.taken.Load() {
			if p.quit.Load() {
				return
			}
			p.genParked.Store(true)
			if (p.quit.Load() || t-1-p.taken.Load() <= ringSize/2) && p.genParked.CompareAndSwap(true, false) {
				continue
			}
			<-p.genWake
		}
		if taken := p.taken.Load(); t <= taken {
			t = taken + 1
		}
		if p.quit.Load() {
			return
		}
		p.sched.GraphInto(int(t), p.ring[t%ringSize])
		p.made.Store(t)
		if p.rtParked.Load() && p.rtParked.CompareAndSwap(true, false) {
			p.rtWake <- struct{}{}
		}
	}
}

// graph returns round t's graph, which the router reads only until it asks
// for round t+1: asking for t releases round t−1's slot.
func (p *prefetcher) graph(t int) *dynnet.Multigraph {
	want := int64(t)
	p.taken.Store(want - 1)
	if p.genParked.Load() && p.made.Load()-(want-1) <= ringSize/2 && p.genParked.CompareAndSwap(true, false) {
		p.genWake <- struct{}{}
	}
	for spin := 0; p.made.Load() < want; spin++ {
		if spin < spinRounds {
			runtime.Gosched()
			continue
		}
		p.rtParked.Store(true)
		if p.made.Load() >= want && p.rtParked.CompareAndSwap(true, false) {
			break
		}
		<-p.rtWake
	}
	return p.ring[t%ringSize]
}

// stop makes the generator exit, waits for it, and pools the prefetcher.
func (p *prefetcher) stop() {
	p.quit.Store(true)
	if p.genParked.CompareAndSwap(true, false) {
		p.genWake <- struct{}{}
	}
	p.exited.Wait()
	p.sched = nil
	p.quit.Store(false)
	prefetchers.Put(p)
}
