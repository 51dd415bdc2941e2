package engine

import (
	"fmt"
	"math"
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
// relaying process, its held message; for a returned one, nil. At every
// route, every process that has not returned is live.
//
// The router keeps its books per change, not per pid (DESIGN.md decision
// 17): running totals of the live processes and of the bits they send, the
// submissions since the last route, the relays whose fold moved in their
// current step, and a watermark below which no relay ends. A round in which
// every live process relays and holds the top-ranked message starts a quiet
// stretch, which route accounts in one step (quiet).
type router struct {
	cfg *Config
	n   int

	// round counts delivered rounds; route increments it first, so the
	// value passed to Adaptive.Graph, Trace, and BitLimitError is the
	// 1-based round being delivered.
	round int

	// Round-delivery scratch, reused across rounds to keep the hot loop
	// allocation-free: headers and degree counts are per-pid, sent is the
	// Trace hook's slice of the round's messages (built only when Trace is
	// set), and the delivery backing arrays are double-buffered (even/odd
	// rounds) so a process may keep reading its previous round's inbox
	// slice until its next SendAndReceive, per the documented validity
	// window.
	outHeads [][]Message
	degree   []int
	pos      []int
	sent     []Message
	backings [2][]Message
	backing  []Message // this round's backing array

	// inPlace is the schedule's optional allocation-free generator; gbuf is
	// the single reused graph it fills inline. route only reads the graph
	// inside the call, so one buffer (no parity pair) suffices. skip says
	// whether a quiet round may go without its graph: always for an
	// oblivious schedule, a function of the round alone, and for an
	// adaptive one only if it declares Graph stateless.
	inPlace dynnet.InPlaceSchedule
	gbuf    *dynnet.Multigraph
	skip    bool
	// The generator (prefetch.go): pf is the run's, nil while graphs are
	// made inline, and startedAt the round from which it made them (0 if
	// the run started none). t0, calls, samples and sampled are the
	// engagement sample: when the run opened, the inline GraphInto calls so
	// far, and the times of the sampled ones; decided is set once the rule
	// has been applied. prefetchAll, a test hook, starts the generator at
	// round 1 whatever the samples and the spare cores.
	pf          *prefetcher
	startedAt   int
	t0          time.Time
	calls       int
	samples     [sampleRounds / sampleEvery]time.Duration
	sampled     int
	decided     bool
	prefetchAll bool

	// Running totals: live counts the processes that have not returned,
	// liveBits the sizes of the messages they send, and subs lists the
	// pids that submitted since the last route, in pid order unless
	// unsorted.
	live     int
	liveBits int64
	subs     []int
	unsorted bool

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
	// submission still to be sized. A relay's steps run hold rounds each
	// from round first, its last step ends at round last, and wakeNow
	// caches wake(held message).
	ranks             []int32 // rank and foldRank, back to back
	rank, foldRank    []int32
	fold              []Message
	size, foldSize    []int
	first, last, hold []int
	wake              []func(Message) bool
	wakeNow           []bool
	relaying          int  // processes in stateRelaying
	dirty             bool // a submission since the last ranking
	// top is the last ranking's highest rank and atTop the live processes
	// whose message holds it; moved lists the relays whose fold moved in
	// their current step, and no relay ends before round watermark.
	top       int32
	atTop     int
	moved     []int
	watermark int
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

// stateless is the optional AdaptiveSchedule method by which an adversary
// declares that its Graph keeps no state between calls.
type stateless interface{ Stateless() bool }

// newRouter returns a router for n processes. The Config must outlive it.
func newRouter(cfg *Config, n int) *router {
	ranks := make([]int32, 2*n)
	// The per-pid int slices share one allocation; subs and moved hold at
	// most n pids each, so their appends never reallocate.
	ints := make([]int, 9*n)
	rt := &router{
		cfg:       cfg,
		n:         n,
		outHeads:  make([][]Message, n),
		degree:    ints[:n],
		pos:       ints[n : 2*n],
		size:      ints[2*n : 3*n],
		foldSize:  ints[3*n : 4*n],
		first:     ints[4*n : 5*n],
		last:      ints[5*n : 6*n],
		hold:      ints[6*n : 7*n],
		subs:      ints[7*n : 7*n : 8*n],
		moved:     ints[8*n : 8*n : 9*n],
		ranks:     ranks,
		rank:      ranks[:n],
		foldRank:  ranks[n:],
		fold:      make([]Message, n),
		wake:      make([]func(Message) bool, n),
		wakeNow:   make([]bool, n),
		live:      n,
		dirty:     true,
		watermark: math.MaxInt,
		skip:      true,
	}
	if cfg.Trace != nil {
		rt.sent = make([]Message, 0, n)
	}
	if cfg.Adaptive != nil {
		s, ok := cfg.Adaptive.(stateless)
		rt.skip = ok && s.Stateless()
	} else if ips, ok := cfg.Schedule.(dynnet.InPlaceSchedule); ok {
		rt.inPlace = ips
		rt.gbuf = dynnet.NewMultigraph(n)
	}
	return rt
}

// route completes one round: it accounts message sizes, routes the pending
// messages of every live process along the round's multigraph — into the
// inboxes of the waiting processes and the folds of the relaying ones —,
// closes finished relay steps, and invokes the Trace hook. A round that
// starts a quiet stretch is accounted with the whole stretch instead, and
// leaves round at the stretch's last. The returned per-pid inbox slices are
// carved out of the round-parity backing array and stay valid until the
// same parity's next route call. It runs while every live process is
// parked, so state and pending are stable for the whole call.
func (rt *router) route(state []procState, pending []Message, res *Result) ([][]Message, error) {
	rt.round++
	if err := rt.account(state, pending, res); err != nil {
		return nil, err
	}
	waiting := rt.live - rt.relaying
	if rt.relaying > 0 {
		rt.rerank(state, pending)
	}
	// The Trace slice is built before step ends flip relays to woken: a
	// relay sends in the round its last step ends.
	if rt.cfg.Trace != nil {
		sent := rt.sent[:0]
		for pid, s := range state {
			if s.live() {
				sent = append(sent, pending[pid])
			}
		}
		rt.sent = sent
	}
	if waiting == 0 && rt.relaying > 0 && rt.atTop == rt.live && rt.skip {
		rt.quiet(state, pending, res)
		return rt.outHeads, nil
	}

	var g *dynnet.Multigraph
	switch {
	case rt.cfg.Adaptive != nil:
		g = rt.cfg.Adaptive.Graph(rt.round, pending)
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
		rt.foldOnly(links, state, pending, rt.live == rt.n)
		woken = rt.endSteps(state, pending)
	default:
		rt.deliverMixed(links, state, pending)
		woken = rt.endSteps(state, pending)
	}
	rt.ready = waiting + woken

	if rt.cfg.Trace != nil {
		rt.cfg.Trace(rt.round, rt.sent)
	}
	return rt.outHeads, nil
}

// account sizes the submissions since the last route, in pid order, and
// adds the round's messages to res: one per live process, with the running
// total of their sizes. A message over BitLimit ends the round at its
// sender with the totals of counting every live process's message in pid
// order up to and including it.
func (rt *router) account(state []procState, pending []Message, res *Result) error {
	subs := rt.subs
	rt.subs = subs[:0]
	if rt.unsorted {
		// The coordinator oracle's submissions arrive in any order.
		slices.Sort(subs)
		rt.unsorted = false
	}
	if sizeOf := rt.cfg.SizeOf; sizeOf != nil {
		for _, pid := range subs {
			bits := sizeOf(pending[pid])
			rt.size[pid] = bits
			rt.liveBits += int64(bits)
			res.MaxMessageBits = max(res.MaxMessageBits, bits)
			if rt.cfg.BitLimit > 0 && bits > rt.cfg.BitLimit {
				for p, s := range state[:pid+1] {
					if s.live() {
						res.TotalMessages++
						res.TotalBits += int64(rt.size[p])
					}
				}
				return &BitLimitError{Round: rt.round, Process: pid, Bits: bits, Limit: rt.cfg.BitLimit}
			}
		}
	}
	res.TotalMessages += int64(rt.live)
	res.TotalBits += rt.liveBits
	return nil
}

// quiet accounts a quiet stretch. Every live process relays and holds a
// message of the top rank, so each fold holds it too, and no graph can move
// a fold: nothing changes until the earliest relay end (the watermark) or
// MaxRounds, whichever comes first, and the stretch runs from this round to
// that one at once. Every round of it sends the same messages, and nothing
// new is submitted after its first, so the rest of its rounds add live
// messages and liveBits bits each, with no SizeOf call and no graph; Trace
// sees each of them with the same slice. The relays that end in its last
// round wake.
func (rt *router) quiet(state []procState, pending []Message, res *Result) {
	first := rt.round
	end := max(first, min(rt.watermark, rt.cfg.MaxRounds))
	more := int64(end - first)
	res.TotalMessages += more * int64(rt.live)
	res.TotalBits += more * rt.liveBits
	res.QuietRounds += end - first + 1
	rt.round = end
	rt.ready = rt.endSteps(state, pending)
	if rt.cfg.Trace != nil {
		for k := range end - first + 1 {
			rt.cfg.Trace(first+k, rt.sent)
		}
	}
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
// fold, so each link is visited once. A fold that moves for the first time
// in its step (its rank still equal to the held message's) joins moved.
func (rt *router) foldOnly(links []dynnet.Link, state []procState, pending []Message, all bool) {
	rank, foldRank, fold := rt.rank, rt.foldRank, rt.fold
	size, foldSize := rt.size, rt.foldSize
	moved := rt.moved
	for _, l := range links {
		u, v := l.U, l.V
		if !all && (!state[u].live() || !state[v].live()) {
			continue
		}
		if r := rank[v]; r > foldRank[u] {
			if foldRank[u] == rank[u] {
				moved = append(moved, u)
			}
			foldRank[u], fold[u], foldSize[u] = r, pending[v], size[v]
		}
		if r := rank[u]; r > foldRank[v] {
			if foldRank[v] == rank[v] {
				moved = append(moved, v)
			}
			foldRank[v], fold[v], foldSize[v] = r, pending[u], size[u]
		}
	}
	rt.moved = moved
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
		if rt.foldRank[to] == rt.rank[to] {
			rt.moved = append(rt.moved, to)
		}
		rt.foldRank[to], rt.fold[to], rt.foldSize[to] = r, pending[from], rt.size[from]
	}
}

// submit records that pid's pending message is a new submission: the next
// route sizes it and, first, re-ranks every live message. The message it
// replaces leaves the running total of sizes.
func (rt *router) submit(pid int) {
	if s := rt.size[pid]; s > 0 {
		rt.liveBits -= int64(s)
	}
	rt.size[pid] = -1
	if k := len(rt.subs); k > 0 && rt.subs[k-1] > pid {
		rt.unsorted = true
	}
	rt.subs = append(rt.subs, pid)
	rt.dirty = true
}

// leave retires pid, which has returned: it sends no more, so it leaves the
// running totals, and its pending entry is cleared, which is how the
// adaptive adversary sees it terminated. Both runners call it on every
// return.
func (rt *router) leave(pid int, pending []Message) {
	rt.live--
	if s := rt.size[pid]; s > 0 {
		rt.liveBits -= int64(s)
	}
	rt.size[pid] = -1
	// Between rankings every live pid's rank is counted in atTop; after a
	// submission the next ranking recounts.
	if !rt.dirty && rt.rank[pid] == rt.top {
		rt.atTop--
	}
	pending[pid] = nil
}

// startRelay parks pid in a relay of msg, a new submission, from the next
// round on. Its ranks are set by the next route's ranking and its size by
// the next route's accounting; the fold, which starts as msg, needs neither
// until it moves.
func (rt *router) startRelay(pid int, msg Message, steps, hold int, wake func(Message) bool) {
	hold = max(hold, 1)
	rt.submit(pid)
	first := rt.round + 1
	rt.fold[pid] = msg
	rt.first[pid], rt.hold[pid] = first, hold
	rt.last[pid] = math.MaxInt
	if steps <= (math.MaxInt-first)/hold {
		rt.last[pid] = first + steps*hold - 1
	}
	rt.wake[pid] = wake
	rt.wakeNow[pid] = wake != nil && wake(msg)
	rt.watermark = min(rt.watermark, rt.relayEnd(pid, first))
	rt.relaying++
}

// relayEnd returns the first round from t on in which pid's relay ends if
// its fold does not move: the end of the step holding round t if wakeNow
// is set, else the end of its last step.
func (rt *router) relayEnd(pid, t int) int {
	if !rt.wakeNow[pid] {
		return rt.last[pid]
	}
	first, hold := rt.first[pid], rt.hold[pid]
	return first + ((t-first)/hold+1)*hold - 1
}

// endSteps closes the relay steps that end with this round and returns the
// number of relays it woke. A relay wakes once its steps are spent or its
// fold satisfies wake, keeping its last sent message in pending and its
// result in fold; otherwise the fold becomes the held message, rank, size
// and all, for the next step. The fold differs from the held message exactly
// when its rank does, because it only ever moves to strictly higher ranks,
// so only the relays on moved need a look at their step's end: since wake
// is pure, wakeNow caches it on the held message and is re-evaluated only
// when the fold moved, which keeps an indirect call per relay per round off
// the common step. A relay whose fold did not move ends at relayEnd; the
// watermark pass wakes those once the earliest of them is reached.
func (rt *router) endSteps(state []procState, pending []Message) int {
	t, woken := rt.round, 0
	keep := rt.moved[:0]
	for _, pid := range rt.moved {
		if h := rt.hold[pid]; h > 1 && (t+1-rt.first[pid])%h != 0 {
			keep = append(keep, pid) // mid-step
			continue
		}
		if rt.wake[pid] != nil {
			rt.wakeNow[pid] = rt.wake[pid](rt.fold[pid])
		}
		if t == rt.last[pid] || rt.wakeNow[pid] {
			state[pid] = stateWoken
			rt.relaying--
			woken++
			continue
		}
		if rt.foldRank[pid] == rt.top {
			rt.atTop++
		}
		rt.liveBits += int64(rt.foldSize[pid] - rt.size[pid])
		pending[pid], rt.rank[pid], rt.size[pid] = rt.fold[pid], rt.foldRank[pid], rt.foldSize[pid]
	}
	rt.moved = keep
	if t >= rt.watermark {
		woken += rt.endRelays(state, t)
	}
	return woken
}

// endRelays is the watermark pass: it wakes every relay that ends with
// round t and sets the watermark to the earliest end among the rest. A
// relay's end only ever moves later, so the watermark never passes one; it
// may lag behind the round once the relays that set it have woken early,
// and then the next route with a relay runs the pass.
func (rt *router) endRelays(state []procState, t int) int {
	woken, next := 0, math.MaxInt
	for pid, s := range state {
		if s != stateRelaying {
			continue
		}
		if end := rt.relayEnd(pid, t); end > t {
			next = min(next, end)
			continue
		}
		state[pid] = stateWoken
		rt.relaying--
		woken++
	}
	rt.watermark = next
	return woken
}

// rerank re-ranks every live message — each live process's sent message
// and each relaying process's fold — when a submission has arrived since
// the last ranking; otherwise every message in flight carries a rank from
// it and there is nothing to do. Runs of equal-priority entries in pid
// order (mostly the same relayed message) share one representative, the
// representatives are sorted by Config.Priority, and consecutive
// representatives of equal priority share a rank. It recounts atTop, the
// live processes whose sent message has the new top rank.
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
	rt.top, rt.atTop = r, 0
	for _, e := range ents {
		rt.ranks[e.slot] = repRank[e.cls]
		if repRank[e.cls] == r && int(e.slot) < rt.n {
			rt.atTop++
		}
	}
	rt.ents, rt.reps = ents, reps
}
