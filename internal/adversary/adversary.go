// Package adversary provides reactive (strongly adaptive) network
// adversaries: schedules that choose each round's multigraph after
// inspecting the messages being sent. For the paper's deterministic
// protocol an adaptive adversary is no more powerful than an oblivious one
// in principle, but reactive adversaries are the natural way to express
// worst cases — such as maximally delaying whichever message currently has
// the highest broadcast priority.
package adversary

import (
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// Isolator is the worst-case adversary for priority broadcast: every round
// it arranges the processes on a path with the current holders of the
// highest-priority protocol message at one end and a designated target
// process (the leader) at the other, so the top message crawls one hop per
// round. It keeps the network connected at every round, as the Section 3
// algorithm requires, so the protocol must still terminate — after driving
// DiamEstimate to its Θ(n) ceiling (Lemma 4.7).
//
// The path scratch and the returned graph are reused every round (the
// engine reads a graph only until the next Graph call), so an Isolator
// serves one run at a time.
type Isolator struct {
	n      int
	target int

	order, middle, pos []int
	g                  *dynnet.Multigraph
}

var _ engine.AdaptiveSchedule = (*Isolator)(nil)

// NewIsolator returns an isolating adversary for n processes that keeps
// the given target process (usually the leader) farthest from the
// highest-priority message.
func NewIsolator(n, target int) *Isolator {
	return &Isolator{n: n, target: target, pos: make([]int, n), g: dynnet.NewMultigraph(n)}
}

// N implements engine.AdaptiveSchedule.
func (a *Isolator) N() int { return a.n }

// Graph implements engine.AdaptiveSchedule.
func (a *Isolator) Graph(_ int, sent []engine.Message) *dynnet.Multigraph {
	// Rank the senders by the priority of their message; unknown or absent
	// messages rank lowest.
	top := -1
	var topMsg wire.Message
	for pid, raw := range sent {
		m, ok := wire.FromBox(raw)
		if !ok {
			continue
		}
		if top < 0 || core.Higher(m, topMsg) {
			top, topMsg = pid, m
		}
	}

	// Path layout: holders of the top message first, then the remaining
	// processes, with the target at the far end.
	order, middle := a.order[:0], a.middle[:0]
	for pid, raw := range sent {
		if pid == a.target {
			continue
		}
		m, ok := wire.FromBox(raw)
		if ok && top >= 0 && core.Compare(m, topMsg) == 0 {
			order = append(order, pid)
			continue
		}
		middle = append(middle, pid)
	}
	order = append(order, middle...)
	if a.target < a.n {
		order = append(order, a.target)
	}
	a.order, a.middle = order, middle

	// Emit the path's links in canonical order, so the engine finds them
	// sorted: each process, in pid order, links to its higher path
	// neighbours in ascending order.
	for i, pid := range order {
		a.pos[pid] = i
	}
	a.g.Reset(a.n)
	for u, i := range a.pos {
		lo, hi := -1, -1
		if i > 0 {
			lo = order[i-1]
		}
		if i+1 < len(order) {
			hi = order[i+1]
		}
		lo, hi = min(lo, hi), max(lo, hi)
		if lo > u {
			a.g.MustAddLink(u, lo, 1)
		}
		if hi > u {
			a.g.MustAddLink(u, hi, 1)
		}
	}
	return a.g
}

// DiamSpiker is the reset-forcing adversary: it serves a complete graph
// (dynamic diameter 1) until it sees the first Edge or Done message in
// flight — i.e. until the processes have calibrated their DiamEstimate on
// the easy topology and started broadcasting VHT content — then switches
// permanently to a shifting path (dynamic diameter Θ(n)). Acknowledgments
// that were promised within the old estimate now miss their deadline,
// which must fire the error/reset machinery of Section 4: the protocol
// survives (the network stays connected every round) but only after ≥ 1
// leader reset doubles the estimate. It is the adaptive-adversary
// counterpart of the oblivious spike fault (faults.DiamSpike).
type DiamSpiker struct {
	n       int
	spiking bool
}

var _ engine.AdaptiveSchedule = (*DiamSpiker)(nil)

// NewDiamSpiker returns a diameter-spiking adversary for n processes.
func NewDiamSpiker(n int) *DiamSpiker {
	return &DiamSpiker{n: n}
}

// N implements engine.AdaptiveSchedule.
func (a *DiamSpiker) N() int { return a.n }

// Graph implements engine.AdaptiveSchedule.
func (a *DiamSpiker) Graph(round int, sent []engine.Message) *dynnet.Multigraph {
	if !a.spiking {
		for _, raw := range sent {
			m, ok := wire.FromBox(raw)
			if !ok {
				continue
			}
			if m.Label == wire.LabelEdge || m.Label == wire.LabelEdgeBatch || m.Label == wire.LabelDone {
				a.spiking = true
				break
			}
		}
	}
	if a.spiking {
		return dynnet.NewShiftingPath(a.n).Graph(round)
	}
	return dynnet.Complete(a.n)
}

// RunCountingUnderIsolator runs the leader-mode counting protocol against
// the Isolator (process 0 as the targeted leader) and returns the core
// result. It is a convenience wrapper used by tests, benchmarks, and
// cmd/cadn.
func RunCountingUnderIsolator(n int, cfg core.Config, opts core.RunOptions) (*core.RunResult, error) {
	inputs := make([]historytree.Input, n)
	if n > 0 {
		inputs[0].Leader = true
	}
	return core.RunAdaptive(NewIsolator(n, 0), inputs, cfg, opts)
}
