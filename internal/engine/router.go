package engine

import (
	"fmt"

	"anondyn/internal/dynnet"
)

// router computes one round's deliveries: congestion accounting, schedule
// lookup, degree pre-sizing and the parity-double-buffered inbox
// carve-out. It is shared by the runner and by the equivalence oracle in
// coordinator_test.go, so both route byte-identically and a steady-state
// round performs at most one allocation (growing a delivery backing array).
//
// The per-pid state slice uses the runners' common convention: a process
// participates in the round iff its state is stateWaiting, and pending[pid]
// holds its submitted message.
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

	// inPlace is the schedule's optional allocation-free generator; gbuf is
	// the single reused graph it fills. route only reads the graph inside
	// the call, so one buffer (no parity pair) suffices.
	inPlace dynnet.InPlaceSchedule
	gbuf    *dynnet.Multigraph
}

// newRouter returns a router for n processes. The Config must outlive it.
func newRouter(cfg *Config, n int) *router {
	rt := &router{
		cfg:       cfg,
		n:         n,
		outHeads:  make([][]Message, n),
		degree:    make([]int, n),
		pos:       make([]int, n),
		sent:      make([]Message, 0, n),
		sentByPID: make([]Message, n),
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
// messages of every stateWaiting process along the round's multigraph, and
// invokes the Trace hook. The returned per-pid inbox slices are carved out
// of the round-parity backing array and stay valid until the same parity's
// next route call. It runs while every live process is parked, so state and
// pending are stable for the whole call.
func (rt *router) route(state []procState, pending []Message, res *Result) ([][]Message, error) {
	rt.round++

	out := rt.outHeads
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
	waiting := 0
	for pid, s := range state {
		if s != stateWaiting {
			continue
		}
		waiting++
		msg := pending[pid]
		sent = append(sent, msg)
		if adaptive {
			sentByPID[pid] = msg
		}
		res.TotalMessages++
		if rt.cfg.SizeOf != nil {
			bits := rt.cfg.SizeOf(msg)
			res.TotalBits += int64(bits)
			if bits > res.MaxMessageBits {
				res.MaxMessageBits = bits
			}
			if rt.cfg.BitLimit > 0 && bits > rt.cfg.BitLimit {
				return nil, &BitLimitError{Round: rt.round, Process: pid, Bits: bits, Limit: rt.cfg.BitLimit}
			}
		}
	}

	var g *dynnet.Multigraph
	switch {
	case rt.cfg.Adaptive != nil:
		g = rt.cfg.Adaptive.Graph(rt.round, sentByPID)
	case rt.inPlace != nil:
		rt.inPlace.GraphInto(rt.round, rt.gbuf)
		g = rt.gbuf
	default:
		g = rt.cfg.Schedule.Graph(rt.round)
	}
	if g.N() != rt.n {
		return nil, fmt.Errorf("engine: schedule produced graph on %d processes at round %d, want %d",
			g.N(), rt.round, rt.n)
	}

	// Pre-size every inbox by the process's degree in the round's
	// multigraph (counting multiplicities), then carve all inboxes out of
	// one backing array. The backing arrays alternate by round parity: a
	// process may legitimately keep reading its previous round's inbox
	// slice until its next SendAndReceive (see the Transport contract), so
	// the buffer written this round must not be the one delivered last
	// round. When every process participates (the common case until
	// termination), both passes skip the per-endpoint liveness checks; a
	// terminated endpoint neither sends nor receives.
	links := g.CanonicalLinks()
	deg := rt.degree
	for pid := range deg {
		deg[pid] = 0
	}
	total := 0
	all := waiting == rt.n
	for _, l := range links {
		if l.U == l.V {
			if all || state[l.U] == stateWaiting {
				deg[l.U] += l.Mult
				total += l.Mult
			}
			continue
		}
		if all || (state[l.U] == stateWaiting && state[l.V] == stateWaiting) {
			deg[l.U] += l.Mult
			deg[l.V] += l.Mult
			total += 2 * l.Mult
		}
	}
	backing := rt.backings[rt.round&1]
	if cap(backing) < total {
		backing = make([]Message, total)
		rt.backings[rt.round&1] = backing
	}
	backing = backing[:total]
	// pos tracks each inbox's write cursor into the shared backing. Writing
	// through an int cursor instead of append keeps the delivery loop free
	// of slice-header loads and stores; every inbox fills to exactly
	// deg[pid] because the delivery conditions below mirror the degree
	// pass above.
	pos := rt.pos
	off := 0
	for pid := range out {
		if deg[pid] == 0 {
			out[pid] = nil
			pos[pid] = off
			continue
		}
		out[pid] = backing[off : off+deg[pid] : off+deg[pid]]
		pos[pid] = off
		off += deg[pid]
	}
	for _, l := range links {
		if l.U == l.V {
			if all || state[l.U] == stateWaiting {
				pu, mu := pos[l.U], pending[l.U]
				for k := 0; k < l.Mult; k++ {
					backing[pu] = mu
					pu++
				}
				pos[l.U] = pu
			}
			continue
		}
		if all || (state[l.U] == stateWaiting && state[l.V] == stateWaiting) {
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

	if rt.cfg.Trace != nil {
		rt.cfg.Trace(rt.round, sent)
	}
	return out, nil
}
