package engine

import (
	"fmt"
	"slices"
	"time"

	"anondyn/internal/dynnet"
)

// router computes one round's deliveries: congestion accounting, schedule
// lookup, the relay fold, degree pre-sizing and the parity-double-buffered
// inbox carve-out. It is shared by the runner and by the equivalence oracle
// in coordinator_test.go, so both route byte-identically and a steady-state
// round performs at most one allocation (growing a delivery backing array).
//
// The per-pid state slice uses the runners' common convention: a process
// participates in the round iff its state is live (stateWaiting or
// stateRelaying), and pending[pid] holds the message it sends — for a
// relaying process, its held message.
type router struct {
	cfg *Config
	n   int

	// round counts delivered rounds; route increments it first, so the
	// value passed to Adaptive.Graph, Trace, and BitLimitError is the
	// 1-based round being delivered.
	round int

	// Round-delivery scratch, reused across rounds to keep the hot loop
	// allocation-free: headers and degree counts are per-pid, sent /
	// sentByPID hold the round's submissions, and the delivery backing
	// arrays are double-buffered (even/odd rounds) so a process may keep
	// reading its previous round's inbox slice until its next
	// SendAndReceive, per the documented validity window.
	outHeads  [][]Message
	degree    []int
	pos       []int
	sent      []Message
	sentByPID []Message
	backings  [2][]Message
	backing   []Message // this round's backing array

	// inPlace is the schedule's optional allocation-free generator; gbuf is
	// the single reused graph it fills inline. route only reads the graph
	// inside the call, so one buffer (no parity pair) suffices.
	inPlace dynnet.InPlaceSchedule
	gbuf    *dynnet.Multigraph
	// The generator (prefetch.go): pf is the run's, nil while graphs are
	// made inline, and startedAt the round from which it made them (0 if
	// the run started none). t0 and samples are the engagement sample:
	// when round 1 began, and the times of the sampled inline calls.
	// prefetchAll, a test hook, starts the generator at round 1 whatever
	// the samples and the spare cores.
	pf          *prefetcher
	startedAt   int
	t0          time.Time
	samples     [sampleRounds / sampleEvery]time.Duration
	prefetchAll bool

	// Relay state (Transport.Relay, DESIGN.md decision 17), per pid. fold
	// is a relaying process's running fold; rank and foldRank are the
	// priority ranks of pending and fold. Ranks are dense ints ordered as
	// Config.Priority orders the messages, equal priority giving equal
	// rank, so the link pass compares ints only. They hold from one ranking
	// to the next: a relayed message carries its rank into later rounds,
	// and a round with a new submission (dirty) re-ranks every live
	// message first. size and foldSize are the Config.SizeOf sizes of
	// pending and fold, carried the same way: a message is sized once, in
	// the round its originator sends it, and a negative size marks a
	// submission still to be sized. steps counts the steps left, hold the
	// rounds per step and left the rounds left in the current step;
	// wakeNow caches wake(held message).
	ranks             []int32 // rank and foldRank, back to back
	rank, foldRank    []int32
	fold              []Message
	size, foldSize    []int
	steps, hold, left []int
	wake              []func(Message) bool
	wakeNow           []bool
	relaying          int  // processes in stateRelaying
	dirty             bool // a submission since the last ranking
	// ready counts the processes the last route left to resume: the
	// waiting ones and the woken relays.
	ready int

	// Ranking scratch: one entry per ranked message, one representative
	// per run of equal-priority entries, and each representative's rank.
	ents    []rankEntry
	reps    []rankEntry
	repRank []int32
}

// rankEntry is a message to rank. For an entry, slot is its pid in rank
// (slot < n) or foldRank (slot - n), and cls its representative; for a
// representative, cls is its own index before sorting.
type rankEntry struct {
	msg  Message
	slot int32
	cls  int32
}

// newRouter returns a router for n processes. The Config must outlive it.
func newRouter(cfg *Config, n int) *router {
	ranks := make([]int32, 2*n)
	rt := &router{
		cfg:       cfg,
		n:         n,
		outHeads:  make([][]Message, n),
		degree:    make([]int, n),
		pos:       make([]int, n),
		sent:      make([]Message, 0, n),
		sentByPID: make([]Message, n),
		ranks:     ranks,
		rank:      ranks[:n],
		foldRank:  ranks[n:],
		fold:      make([]Message, n),
		size:      make([]int, n),
		foldSize:  make([]int, n),
		steps:     make([]int, n),
		hold:      make([]int, n),
		left:      make([]int, n),
		wake:      make([]func(Message) bool, n),
		wakeNow:   make([]bool, n),
	}
	if cfg.Adaptive == nil {
		if ips, ok := cfg.Schedule.(dynnet.InPlaceSchedule); ok {
			rt.inPlace = ips
			rt.gbuf = dynnet.NewMultigraph(n)
		}
	}
	return rt
}

// route completes one round: it accounts message sizes, routes the pending
// messages of every live process along the round's multigraph — into the
// inboxes of the waiting processes and the folds of the relaying ones —,
// closes finished relay steps, and invokes the Trace hook. The returned
// per-pid inbox slices are carved out of the round-parity backing array and
// stay valid until the same parity's next route call. It runs while every
// live process is parked, so state and pending are stable for the whole
// call.
func (rt *router) route(state []procState, pending []Message, res *Result) ([][]Message, error) {
	rt.round++

	sent := rt.sent[:0]
	// sentByPID only feeds the adaptive adversary; skip maintaining it
	// otherwise.
	adaptive := rt.cfg.Adaptive != nil
	sentByPID := rt.sentByPID
	if adaptive {
		for pid := range sentByPID {
			sentByPID[pid] = nil
		}
	}
	waiting, live := 0, 0
	for pid, s := range state {
		if !s.live() {
			continue
		}
		live++
		if s == stateWaiting {
			waiting++
		}
		msg := pending[pid]
		sent = append(sent, msg)
		if adaptive {
			sentByPID[pid] = msg
		}
		res.TotalMessages++
		if rt.cfg.SizeOf == nil {
			continue
		}
		bits := rt.size[pid]
		if bits >= 0 {
			// Sent before, by this process or, for a relayed copy, by its
			// originator: sized, counted and checked in that round.
			res.TotalBits += int64(bits)
			continue
		}
		bits = rt.cfg.SizeOf(msg)
		rt.size[pid] = bits
		res.TotalBits += int64(bits)
		if bits > res.MaxMessageBits {
			res.MaxMessageBits = bits
		}
		if rt.cfg.BitLimit > 0 && bits > rt.cfg.BitLimit {
			return nil, &BitLimitError{Round: rt.round, Process: pid, Bits: bits, Limit: rt.cfg.BitLimit}
		}
	}

	var g *dynnet.Multigraph
	switch {
	case rt.cfg.Adaptive != nil:
		g = rt.cfg.Adaptive.Graph(rt.round, sentByPID)
	case rt.inPlace != nil:
		g = rt.inPlaceGraph()
	default:
		g = rt.cfg.Schedule.Graph(rt.round)
	}
	if g.N() != rt.n {
		return nil, fmt.Errorf("engine: schedule produced graph on %d processes at round %d, want %d",
			g.N(), rt.round, rt.n)
	}

	// A link carries messages only when both its ends are live: a
	// terminated endpoint neither sends nor receives.
	links := g.CanonicalLinks()
	woken := 0
	switch {
	case waiting == rt.n:
		rt.deliverAll(links, pending)
	case waiting == 0:
		rt.rerank(state, pending)
		rt.foldOnly(links, state, pending, live == rt.n)
		woken = rt.endSteps(state, pending)
	default:
		if rt.relaying > 0 {
			rt.rerank(state, pending)
		}
		rt.deliverMixed(links, state, pending)
		woken = rt.endSteps(state, pending)
	}
	rt.ready = waiting + woken

	if rt.cfg.Trace != nil {
		rt.cfg.Trace(rt.round, sent)
	}
	return rt.outHeads, nil
}

// deliverAll routes a round in which every process waits on an inbox (no
// relay, none terminated: the common case, and every round of a protocol
// that never relays). It pre-sizes every inbox by the process's degree in
// the round's multigraph (counting multiplicities), then carves all
// inboxes out of one backing array.
func (rt *router) deliverAll(links []dynnet.Link, pending []Message) {
	deg := rt.degree
	for pid := range deg {
		deg[pid] = 0
	}
	total := 0
	for _, l := range links {
		if l.U == l.V {
			deg[l.U] += l.Mult
			total += l.Mult
			continue
		}
		deg[l.U] += l.Mult
		deg[l.V] += l.Mult
		total += 2 * l.Mult
	}
	backing := rt.carve(total)
	// Writing through an int cursor instead of append keeps the delivery
	// loop free of slice-header loads and stores; every inbox fills to
	// exactly deg[pid].
	pos := rt.pos
	for _, l := range links {
		if l.U == l.V {
			pu, mu := pos[l.U], pending[l.U]
			for k := 0; k < l.Mult; k++ {
				backing[pu] = mu
				pu++
			}
			pos[l.U] = pu
			continue
		}
		pu, pv := pos[l.U], pos[l.V]
		mu, mv := pending[l.U], pending[l.V]
		for k := 0; k < l.Mult; k++ {
			backing[pu] = mv
			backing[pv] = mu
			pu++
			pv++
		}
		pos[l.U], pos[l.V] = pu, pv
	}
}

// carve sizes this round's backing array for total deliveries and points
// every inbox header (and write cursor, pos) at its deg-sized region. The
// backing arrays alternate by round parity: a process may legitimately keep
// reading its previous round's inbox slice until its next SendAndReceive
// (see the Transport contract), so the buffer written this round must not
// be the one delivered last round.
func (rt *router) carve(total int) []Message {
	backing := rt.backings[rt.round&1]
	if cap(backing) < total {
		backing = make([]Message, total)
		rt.backings[rt.round&1] = backing
	}
	backing = backing[:total]
	rt.backing = backing
	out, deg, pos := rt.outHeads, rt.degree, rt.pos
	off := 0
	for pid := range out {
		pos[pid] = off
		if deg[pid] == 0 {
			out[pid] = nil
			continue
		}
		out[pid] = backing[off : off+deg[pid] : off+deg[pid]]
		off += deg[pid]
	}
	return backing
}

// foldOnly routes a round in which every live process relays: no inbox is
// built, and each receiver folds its senders' ranks in link order, which is
// the order its inbox would have listed them. A receiver's fold takes a
// message, with its size, only when its rank is strictly higher, so on a
// tie the first arrival wins; multiplicities and repeats cannot change a
// fold, so each link is visited once.
func (rt *router) foldOnly(links []dynnet.Link, state []procState, pending []Message, all bool) {
	rank, foldRank, fold := rt.rank, rt.foldRank, rt.fold
	size, foldSize := rt.size, rt.foldSize
	for _, l := range links {
		u, v := l.U, l.V
		if !all && (!state[u].live() || !state[v].live()) {
			continue
		}
		if r := rank[v]; r > foldRank[u] {
			foldRank[u], fold[u], foldSize[u] = r, pending[v], size[v]
		}
		if r := rank[u]; r > foldRank[v] {
			foldRank[v], fold[v], foldSize[v] = r, pending[u], size[u]
		}
	}
}

// deliverMixed routes any other round — some processes terminated, or
// some waiting on an inbox while others relay: a waiting receiver's inbox
// is sized and filled as in deliverAll, a relaying receiver folds as in
// foldOnly.
func (rt *router) deliverMixed(links []dynnet.Link, state []procState, pending []Message) {
	deg := rt.degree
	for pid := range deg {
		deg[pid] = 0
	}
	total := 0
	for _, l := range links {
		u, v := l.U, l.V
		if !state[u].live() || !state[v].live() {
			continue
		}
		if state[u] == stateWaiting {
			deg[u] += l.Mult
			total += l.Mult
		}
		if u != v && state[v] == stateWaiting {
			deg[v] += l.Mult
			total += l.Mult
		}
	}
	rt.carve(total)
	for _, l := range links {
		u, v := l.U, l.V
		if !state[u].live() || !state[v].live() {
			continue
		}
		rt.receive(state, pending, u, v, l.Mult)
		if u != v {
			rt.receive(state, pending, v, u, l.Mult)
		}
	}
}

// receive delivers mult copies of from's message to a waiting process's
// inbox, or folds it into a relaying process's fold.
func (rt *router) receive(state []procState, pending []Message, to, from, mult int) {
	if state[to] == stateWaiting {
		p := rt.pos[to]
		for k := 0; k < mult; k++ {
			rt.backing[p] = pending[from]
			p++
		}
		rt.pos[to] = p
		return
	}
	if r := rt.rank[from]; r > rt.foldRank[to] {
		rt.foldRank[to], rt.fold[to], rt.foldSize[to] = r, pending[from], rt.size[from]
	}
}

// submit records that pid's pending message is a new submission: the next
// route sizes it and, first, re-ranks every live message.
func (rt *router) submit(pid int) {
	rt.size[pid] = -1
	rt.dirty = true
}

// startRelay parks pid in a relay of msg, a new submission. Its ranks are
// set by the next route's ranking and its size by the next route's
// accounting; the fold, which starts as msg, needs neither until it moves.
func (rt *router) startRelay(pid int, msg Message, steps, hold int, wake func(Message) bool) {
	hold = max(hold, 1)
	rt.relaying++
	rt.submit(pid)
	rt.fold[pid] = msg
	rt.steps[pid] = steps
	rt.hold[pid], rt.left[pid] = hold, hold
	rt.wake[pid] = wake
	rt.wakeNow[pid] = wake != nil && wake(msg)
}

// endSteps closes the relay steps that end with this round and returns the
// number of relays it woke. A relay wakes once its steps are spent or its
// fold satisfies wake, keeping its last sent message in pending and its
// result in fold; otherwise the fold becomes the held message, rank, size
// and all, for the next step. The fold differs from the held message exactly
// when its rank does, because it only ever moves to strictly higher ranks;
// since wake is pure, wakeNow caches it on the held message and is
// re-evaluated only when the fold moved, which keeps an indirect call per
// relay per round off the common step.
func (rt *router) endSteps(state []procState, pending []Message) int {
	woken := 0
	for pid, s := range state {
		if s != stateRelaying {
			continue
		}
		if rt.left[pid]--; rt.left[pid] > 0 {
			continue
		}
		rt.steps[pid]--
		moved := rt.foldRank[pid] != rt.rank[pid]
		if moved && rt.wake[pid] != nil {
			rt.wakeNow[pid] = rt.wake[pid](rt.fold[pid])
		}
		if rt.steps[pid] == 0 || rt.wakeNow[pid] {
			state[pid] = stateWoken
			rt.relaying--
			woken++
			continue
		}
		if moved {
			pending[pid], rt.rank[pid], rt.size[pid] = rt.fold[pid], rt.foldRank[pid], rt.foldSize[pid]
		}
		rt.left[pid] = rt.hold[pid]
	}
	return woken
}

// rerank re-ranks every live message — each live process's sent message
// and each relaying process's fold — when a submission has arrived since
// the last ranking; otherwise every message in flight carries a rank from
// it and there is nothing to do. Runs of equal-priority entries in pid
// order (mostly the same relayed message) share one representative, the
// representatives are sorted by Config.Priority, and consecutive
// representatives of equal priority share a rank.
func (rt *router) rerank(state []procState, pending []Message) {
	if !rt.dirty {
		return
	}
	rt.dirty = false
	prio := rt.cfg.Priority
	ents, reps := rt.ents[:0], rt.reps[:0]
	for pid, s := range state {
		if !s.live() {
			continue
		}
		ents = append(ents, rankEntry{msg: pending[pid], slot: int32(pid)})
		if s == stateRelaying {
			ents = append(ents, rankEntry{msg: rt.fold[pid], slot: int32(rt.n + pid)})
		}
	}
	for i := range ents {
		if k := len(reps) - 1; k >= 0 && prio(reps[k].msg, ents[i].msg) == 0 {
			ents[i].cls = int32(k)
			continue
		}
		ents[i].cls = int32(len(reps))
		reps = append(reps, rankEntry{msg: ents[i].msg, cls: int32(len(reps))})
	}
	slices.SortFunc(reps, func(a, b rankEntry) int { return prio(a.msg, b.msg) })
	if cap(rt.repRank) < len(reps) {
		rt.repRank = make([]int32, len(reps))
	}
	repRank := rt.repRank[:len(reps)]
	r := int32(0)
	for i := range reps {
		if i > 0 && prio(reps[i-1].msg, reps[i].msg) != 0 {
			r++
		}
		repRank[reps[i].cls] = r
	}
	for _, e := range ents {
		rt.ranks[e.slot] = repRank[e.cls]
	}
	rt.ents, rt.reps = ents, reps
}
