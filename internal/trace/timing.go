package trace

import (
	"fmt"
	"time"

	"anondyn/internal/core"
)

// Timing summarizes where a run's real time went: the whole run's wall
// clock versus the slice spent inside the cardinality solver (and how many
// solver invocations that was). It is the timing companion to the message
// log: cmd/experiments attaches one Timing per table row so JSON consumers
// can see whether a slow sweep point is engine- or solver-bound.
type Timing struct {
	// WallClock is the full run duration, engine included.
	WallClock time.Duration
	// SolverTime is the deciding process's cumulative time inside the
	// counting solver, over SolverCalls invocations.
	SolverTime  time.Duration
	SolverCalls int
	// Multi-modular solver counters (zero under the big.Int backend):
	// battery primes in use at termination, CRT ray reconstructions,
	// unlucky-prime evictions, and fallbacks to the big.Int witness.
	SolverPrimes       int
	SolverCRTRecons    int
	SolverEvictions    int
	SolverWitnessFalls int
	// PeakResidentNodes is the peak resident node count of the deciding
	// process's tree.
	PeakResidentNodes int
}

// TimingOf extracts the timing view of a run's statistics.
func TimingOf(st core.RunStats) *Timing {
	return &Timing{
		WallClock:          st.WallClock,
		SolverTime:         st.SolverTime,
		SolverCalls:        st.SolverCalls,
		SolverPrimes:       st.SolverPrimes,
		SolverCRTRecons:    st.SolverCRTRecons,
		SolverEvictions:    st.SolverEvictions,
		SolverWitnessFalls: st.SolverWitnessFalls,
		PeakResidentNodes:  st.PeakResidentNodes,
	}
}

// Add accumulates another run's timing into t (for sweep points that
// aggregate several seeds). The battery size takes the maximum rather
// than the sum — it is a high-water mark, not a volume.
func (t *Timing) Add(o *Timing) {
	t.WallClock += o.WallClock
	t.SolverTime += o.SolverTime
	t.SolverCalls += o.SolverCalls
	if o.SolverPrimes > t.SolverPrimes {
		t.SolverPrimes = o.SolverPrimes
	}
	t.SolverCRTRecons += o.SolverCRTRecons
	t.SolverEvictions += o.SolverEvictions
	t.SolverWitnessFalls += o.SolverWitnessFalls
	if o.PeakResidentNodes > t.PeakResidentNodes {
		t.PeakResidentNodes = o.PeakResidentNodes
	}
}

// WallMS returns the wall clock in milliseconds.
func (t *Timing) WallMS() float64 { return float64(t.WallClock) / float64(time.Millisecond) }

// SolverMS returns the solver time in milliseconds.
func (t *Timing) SolverMS() float64 { return float64(t.SolverTime) / float64(time.Millisecond) }

// String renders the timing compactly, e.g. "wall 12.4ms, solver 3.1ms (25%, 17 calls)".
func (t *Timing) String() string {
	share := 0.0
	if t.WallClock > 0 {
		share = 100 * float64(t.SolverTime) / float64(t.WallClock)
	}
	s := fmt.Sprintf("wall %.1fms, solver %.1fms (%.0f%%, %d calls)",
		t.WallMS(), t.SolverMS(), share, t.SolverCalls)
	if t.SolverPrimes > 0 {
		s += fmt.Sprintf(", %d primes, %d crt", t.SolverPrimes, t.SolverCRTRecons)
		if t.SolverEvictions > 0 {
			s += fmt.Sprintf(", %d evictions", t.SolverEvictions)
		}
		if t.SolverWitnessFalls > 0 {
			s += fmt.Sprintf(", %d witness falls", t.SolverWitnessFalls)
		}
	}
	return s
}
