package core

import (
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
)

// RunStepwise is Run (ecfg.Schedule set) or RunAdaptive (ecfg.Adaptive
// set) with every process relaying through stepTransport, the stepwise
// reference, instead of the engine's Relay. It exists for the external
// relay differential test, which needs the fault plans and adversaries of
// packages that import core.
func RunStepwise(ecfg engine.Config, inputs []historytree.Input, cfg Config, opts RunOptions) (*RunResult, error) {
	n := len(inputs)
	if ecfg.Adaptive != nil {
		n = ecfg.Adaptive.N()
	} else if ecfg.Schedule != nil {
		n = ecfg.Schedule.N()
	}
	return run(ecfg, n, inputs, cfg, opts, oracle{wrap: func(tr transport) transport { return stepTransport{tr} }})
}
