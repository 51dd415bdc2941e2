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
// A relay forwards message boxes, not copies (DESIGN.md decision 9), so a
// round's n messages are a handful of distinct boxes: the Isolator ranks
// the boxes, not the senders. The path scratch and the returned graph are
// reused every round (the engine reads a graph only until the next Graph
// call), so an Isolator serves one run at a time.
type Isolator struct {
	n      int
	target int // -1: no target

	// Per-round scratch. boxes holds the round's distinct protocol
	// messages in order of first sender: one entry per *wire.Message box
	// (identical boxes hold identical messages). box[pid] is pid's entry,
	// or -1 for a terminated process or a non-protocol message (anything
	// but a *wire.Message, as wire.FromBox has it). order is the path.
	boxes []isoBox
	box   []int
	order []int
	g     *dynnet.Multigraph
}

// isoBox is one distinct message of a round: the box, the message, how
// many processes send it, and whether it ties the round's top priority.
type isoBox struct {
	ptr     *wire.Message
	msg     wire.Message
	senders int
	top     bool
}

var _ engine.AdaptiveSchedule = (*Isolator)(nil)

// NewIsolator returns an isolating adversary for n processes that keeps
// the given target process (usually the leader) farthest from the
// highest-priority message. A target outside [0, n) means no target: the
// holders of the top message are still kept at one end of the path.
func NewIsolator(n, target int) *Isolator {
	if target < 0 || target >= n {
		target = -1
	}
	return &Isolator{n: n, target: target, box: make([]int, n), order: make([]int, n), g: dynnet.NewMultigraph(n)}
}

// N implements engine.AdaptiveSchedule.
func (a *Isolator) N() int { return a.n }

// Stateless declares to the engine that Graph keeps no state between calls
// (see engine.AdaptiveSchedule): the path depends on the round's sent
// messages alone, and the scratch it reuses carries nothing from one call
// to the next. So the engine may skip the calls of a quiet stretch.
func (a *Isolator) Stateless() bool { return true }

// Graph implements engine.AdaptiveSchedule.
func (a *Isolator) Graph(_ int, sent []engine.Message) *dynnet.Multigraph {
	// Collect the distinct messages. Relayed copies share a box and
	// neighbouring senders often send the same one, so the previous
	// sender's entry is tried before the scan.
	boxes, box := a.boxes[:0], a.box
	last := -1
	for pid := range box {
		box[pid] = -1
		if pid >= len(sent) {
			continue
		}
		m, ok := sent[pid].(*wire.Message)
		if !ok {
			continue
		}
		if last < 0 || boxes[last].ptr != m {
			last = -1
			for i := range boxes {
				if boxes[i].ptr == m {
					last = i
					break
				}
			}
			if last < 0 {
				last = len(boxes)
				boxes = append(boxes, isoBox{ptr: m, msg: *m})
			}
		}
		box[pid] = last
		boxes[last].senders++
	}
	a.boxes = boxes

	// The holders are the senders of every message of the top priority:
	// distinct boxes of equal priority (two Begin or two Halt messages)
	// hold it alike.
	top := -1
	for i := range boxes {
		if top < 0 || core.Higher(boxes[i].msg, boxes[top].msg) {
			top = i
		}
	}
	holders := 0
	for i := range boxes {
		if core.Compare(boxes[i].msg, boxes[top].msg) == 0 {
			boxes[i].top = true
			holders += boxes[i].senders
		}
	}
	if t := a.target; t >= 0 && box[t] >= 0 && boxes[box[t]].top {
		holders--
	}

	// Path layout, in one pass: the holders first, then the remaining
	// processes, each group in pid order, with the target at the far end.
	order := a.order
	h, m := 0, holders
	for pid, b := range box {
		switch {
		case pid == a.target:
		case b >= 0 && boxes[b].top:
			order[h] = pid
			h++
		default:
			order[m] = pid
			m++
		}
	}
	if a.target >= 0 {
		order[m] = a.target
	}
	if err := a.g.ResetPath(order); err != nil {
		panic(err) // unreachable: order lists every pid once
	}
	return a.g
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
