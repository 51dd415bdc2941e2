package core

import (
	"runtime"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// loopTransport replays the same pre-boxed delivery slice forever, with no
// per-round allocation, so AllocsPerRun isolates the process's own
// allocations from test-harness noise.
type loopTransport struct {
	replies []engine.Message
	round   int
}

var _ transport = (*loopTransport)(nil)

func (f *loopTransport) SendAndReceive(engine.Message) ([]engine.Message, error) {
	f.round++
	return f.replies, nil
}
func (f *loopTransport) Relay(m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error) {
	return stepRelay(f.SendAndReceive, m, steps, hold, wake)
}
func (f *loopTransport) Round() int { return f.round }
func (f *loopTransport) PID() int   { return 1 }

// TestSetUpNewLevelAllocs pins the begin-round's steady-state allocation
// count. The seed built a fresh counting map plus sorted key slice per
// call; the run-length pass over the sorted Begin messages plus the reused
// level scratch leave only small map bookkeeping (and, under
// FineGrainedReset, the snapshot's obsList copy). The bound is ≈2× the measured value to absorb allocator
// noise without re-admitting per-call map churn.
func TestSetUpNewLevelAllocs(t *testing.T) {
	begin2, begin3 := wire.Begin(2), wire.Begin(3)
	tr := &loopTransport{replies: []engine.Message{&begin2, &begin2, &begin3}}
	p := NewProcess(Config{Mode: ModeLeader}, historytree.Input{})
	p.tr = tr
	p.initialize()

	// setUpNewLevel snapshots the current level and rebuilds its working
	// state from VHT level currentLevel-1; at currentLevel 0 that is the
	// root pseudo-level, which always exists.
	p.currentLevel = 0
	if restart, err := p.setUpNewLevel(); err != nil || restart {
		t.Fatalf("warm call: restart=%v err=%v", restart, err)
	}

	allocs := testing.AllocsPerRun(64, func() {
		restart, err := p.setUpNewLevel()
		if err != nil || restart {
			t.Fatalf("restart=%v err=%v", restart, err)
		}
	})
	if allocs > 6 {
		t.Fatalf("setUpNewLevel allocated %.1f objects per call, want ≤ 6", allocs)
	}
	if len(p.obsList) != 3 {
		t.Fatalf("obsList has %d entries, want 3 (two foreign IDs + own cycle pair)", len(p.obsList))
	}
}

// TestRunKeepsNoJournal pins that only fine-grained runs keep a message
// journal: a leader run over a static n=24 path allocates about 3.5 MB
// without one and 8.6 MB when every accepted message is journaled. The
// first run warms the package's pools; the bound is on the second run's
// TotalAlloc delta, the same under -race.
func TestRunKeepsNoJournal(t *testing.T) {
	const n = 24
	s := dynnet.NewStatic(dynnet.Path(n))
	cfg := Config{Mode: ModeLeader, MaxLevels: 3*n + 8}
	count := func() {
		res, err := Run(s, leaderInputs(n), cfg, RunOptions{})
		if err != nil || res.N != n {
			t.Fatalf("run: n=%v err=%v", res, err)
		}
	}
	count()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	count()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 5e6 {
		t.Fatalf("a static-path n=%d run allocated %.2f MB, want ≤ 5 MB", n, float64(got)/1e6)
	}
}
