package oracle

import (
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/wire"
)

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
