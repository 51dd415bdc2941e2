// Package check provides a live invariant checker for counting runs. A
// Checker attaches to a run through the existing core.Config.Recorder
// hook (as the recorder's observer) and validates, while the run is in
// flight, the reset monotonicity of Section 4 (Lemma 4.7: diameter
// estimates strictly double and stay ≤ 4n, resets stay logarithmic) and,
// post-hoc via Verify, the history-tree well-formedness invariants of the
// full arXiv version: every completed level's temporary IDs partition the
// process set, child classes refine parent classes, and the VHT's
// red-edge balance equations hold against the ground-truth cardinalities
// (Lemma 4.4). Verify also compares the run's answer against ground
// truth computed directly from the inputs, so a checker-guarded run is a
// complete end-to-end oracle: attach, run, Verify.
//
// Checkers never alter protocol behaviour: they observe the same
// instrumentation stream tests already rely on.
package check

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"anondyn/internal/core"
	"anondyn/internal/historytree"
)

// Checker validates protocol invariants live (as recorder events arrive)
// and post-hoc (Verify). It is safe for concurrent use; processes under
// the parallel scheduler report events from their shards' worker
// goroutines.
type Checker struct {
	n      int
	inputs []historytree.Input
	rec    *core.Recorder

	mu         sync.Mutex
	lastDiam   int
	lastBegin  int
	resets     int
	violations []string
}

// New builds a checker for a run over the given inputs (ground truth).
func New(inputs []historytree.Input) *Checker {
	return &Checker{n: len(inputs), inputs: append([]historytree.Input(nil), inputs...)}
}

// Attach wires the checker into a run configuration: it installs a fresh
// recorder (owned by the checker) with the checker as its live observer.
// Attach must be called before the run starts and replaces any recorder
// already present in cfg.
func (c *Checker) Attach(cfg *core.Config) {
	c.rec = core.NewRecorder()
	c.rec.SetObserver(c)
	cfg.Recorder = c.rec
}

// Recorder returns the recorder installed by Attach (nil before).
func (c *Checker) Recorder() *core.Recorder { return c.rec }

func (c *Checker) violatef(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// maxResets is the Lemma 4.7 budget used by the live reset check: the
// estimate starts at 1 and doubles per reset, so it can double at most
// log₂(4n) times before exceeding 4n (+1 slack, matching the test suite).
func maxResets(n int) int {
	m := 0
	for v := 4 * n; v > 1; v >>= 1 {
		m++
	}
	return m + 1
}

// ObserveReset implements core.RecorderObserver: estimates must strictly
// double, stay ≤ 4n, and fire at most logarithmically often.
func (c *Checker) ObserveReset(newDiam int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resets++
	if newDiam < 2 {
		c.violatef("reset %d announced diameter estimate %d < 2", c.resets, newDiam)
	}
	if c.lastDiam > 0 && newDiam != 2*c.lastDiam {
		c.violatef("reset %d raised the estimate %d → %d, want exact doubling",
			c.resets, c.lastDiam, newDiam)
	}
	if newDiam > 4*c.n {
		c.violatef("reset %d raised the estimate to %d > 4n = %d (Lemma 4.7)",
			c.resets, newDiam, 4*c.n)
	}
	if c.resets > maxResets(c.n) {
		c.violatef("%d resets exceed the Lemma 4.7 budget %d", c.resets, maxResets(c.n))
	}
	c.lastDiam = newDiam
}

// ObserveBeginRound implements core.RecorderObserver: level begin rounds
// are recorded by a single process and real rounds only move forward.
func (c *Checker) ObserveBeginRound(round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if round < 1 {
		c.violatef("level begin recorded at round %d < 1", round)
	}
	if round < c.lastBegin {
		c.violatef("level begin rounds went backwards: %d after %d", round, c.lastBegin)
	}
	c.lastBegin = round
}

// ObserveLevelDone implements core.RecorderObserver: completions must
// reference a real process and a plausible level/ID.
func (c *Checker) ObserveLevelDone(level, pid, id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pid < 0 || pid >= c.n {
		c.violatef("level %d completed by out-of-range process %d", level, pid)
	}
	if level < 0 {
		c.violatef("process %d completed negative level %d", pid, level)
	}
	if id < 0 {
		c.violatef("process %d completed level %d with negative ID %d", pid, level, id)
	}
}

// Err returns the violations accumulated by the live checks so far, or
// nil. It may be called mid-run.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s):\n  %s",
		len(c.violations), strings.Join(c.violations, "\n  "))
}

// Verify runs the post-hoc invariants against a completed run: live
// violations, history-tree well-formedness (levels partition the process
// set, children refine parents, red-edge balance against ground-truth
// cardinalities — Lemma 4.4), and answer-vs-ground-truth. The checker
// must have been Attached to the run's Config.
func (c *Checker) Verify(res *core.RunResult) error {
	if err := c.Err(); err != nil {
		return err
	}
	if c.rec == nil {
		return errors.New("check: Verify called on a checker that was never Attached")
	}
	if res == nil {
		return errors.New("check: nil RunResult")
	}
	if err := c.verifyAnswer(res); err != nil {
		return err
	}
	// Processes that terminated via a Halt broadcast mid-level report no
	// tree; without a VHT there is no structure to verify.
	if res.VHT == nil {
		return nil
	}
	if err := res.VHT.Validate(); err != nil {
		return fmt.Errorf("check: VHT malformed: %w", err)
	}
	return c.verifyLevels(res)
}

// VerifyAnswer compares a completed run's answer (count, multiset, or
// leaderless frequencies) against ground truth computed directly from the
// inputs, without requiring an attached recorder. It is the answer-only
// subset of Verify for backends that do not emit recorder events — the
// linear protocol in particular — and is what the cross-protocol
// differential suite uses as its oracle on linear runs.
func VerifyAnswer(inputs []historytree.Input, res *core.RunResult) error {
	if res == nil {
		return errors.New("check: nil RunResult")
	}
	return New(inputs).verifyAnswer(res)
}

// VerifyWitness re-solves a completed run's final VHT at every level up
// to the decision level under both arithmetic backends of the counting
// solver, and reports the first level where the multi-modular answer
// differs from the big.Int witness's, in its Known flag or its answer.
// It also rejects a run whose own solver fell back to the witness, which
// means the modular backend failed to certify (DESIGN.md decision 12).
// The run must have kept an uncompacted tree.
func VerifyWitness(res *core.RunResult) error {
	if res == nil || res.VHT == nil {
		return errors.New("check: no VHT to re-solve")
	}
	if res.Stats.SolverWitnessFalls != 0 {
		return fmt.Errorf("check: solver fell back to the big.Int witness %d times", res.Stats.SolverWitnessFalls)
	}
	for l := 0; l <= res.Stats.Levels; l++ {
		var mod, big any
		var modErr, bigErr error
		if res.Frequencies != nil {
			mod, modErr = historytree.FrequenciesWith(res.VHT, l, historytree.ArithModular)
			big, bigErr = historytree.FrequenciesWith(res.VHT, l, historytree.ArithBig)
		} else {
			mod, modErr = historytree.CountWith(res.VHT, l, historytree.ArithModular)
			big, bigErr = historytree.CountWith(res.VHT, l, historytree.ArithBig)
		}
		if modErr != nil || bigErr != nil {
			return fmt.Errorf("check: level %d: modular error %v, big.Int error %v", l, modErr, bigErr)
		}
		if !reflect.DeepEqual(mod, big) {
			return fmt.Errorf("check: level %d: modular %+v, big.Int witness %+v", l, mod, big)
		}
	}
	return nil
}

// verifyAnswer compares the run's output with ground truth computed
// directly from the inputs.
func (c *Checker) verifyAnswer(res *core.RunResult) error {
	if res.Frequencies != nil {
		return c.verifyFrequencies(res.Frequencies)
	}
	if res.N != c.n {
		return fmt.Errorf("check: counted %d processes, ground truth is %d", res.N, c.n)
	}
	if res.Multiset != nil {
		// Zero-count classes are ignored on both sides: basic mode reports
		// the pre-agreed {leader, non-leader} partition even when one class
		// is empty (n = 1), and an empty class does not change the multiset.
		want := c.groundTruthMultiset()
		got := 0
		for in, cnt := range res.Multiset {
			if cnt == 0 {
				continue
			}
			got++
			if want[in] != cnt {
				return fmt.Errorf("check: multiset[%v] = %d, ground truth %d", in, cnt, want[in])
			}
		}
		if got != len(want) {
			return fmt.Errorf("check: multiset has %d nonempty classes, ground truth %d", got, len(want))
		}
	}
	return nil
}

// groundTruthMultiset is the Generalized Counting answer implied by the
// inputs. In basic mode (no input level) the protocol's answer is the
// pre-agreed {leader, non-leader} partition, which is exactly the input
// multiset too: non-leaders carry the zero Input.
func (c *Checker) groundTruthMultiset() map[historytree.Input]int {
	want := make(map[historytree.Input]int)
	for _, in := range c.inputs {
		want[in]++
	}
	return want
}

func (c *Checker) verifyFrequencies(got *historytree.FrequencyResult) error {
	if !got.Known {
		return errors.New("check: leaderless run reported unknown frequencies")
	}
	counts := c.groundTruthMultiset()
	g := 0
	for _, cnt := range counts {
		g = gcd(g, cnt)
	}
	if got.MinSize != c.n/g {
		return fmt.Errorf("check: leaderless MinSize = %d, ground truth %d", got.MinSize, c.n/g)
	}
	if len(got.Shares) != len(counts) {
		return fmt.Errorf("check: %d frequency classes, ground truth %d", len(got.Shares), len(counts))
	}
	for in, cnt := range counts {
		if got.Shares[in] != cnt/g {
			return fmt.Errorf("check: share[%v] = %d, ground truth %d", in, got.Shares[in], cnt/g)
		}
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// verifyLevels checks the per-level structure of the final VHT against
// the recorder's ID assignments: every completed level's IDs form a
// partition of the process set into existing nodes of that level, child
// classes refine parent classes (each process's level-l node is a child
// of its level-(l-1) node), and the red-edge balance equations hold for
// the ground-truth cardinalities.
func (c *Checker) verifyLevels(res *core.RunResult) error {
	// In basic leader mode the recorder starts at level 1: level 0 is the
	// pre-agreed {leader → ID 0, other → ID 1} partition, never broadcast.
	basic := len(c.rec.IDsAtLevel(0)) == 0
	card := map[int]int{historytree.RootID: c.n}
	if basic {
		for _, in := range c.inputs {
			if in.Leader {
				card[0]++
			} else {
				card[1]++
			}
		}
	}
	start := 1
	if !basic {
		start = 0
	}
	prev := make(map[int]int) // pid → ID one level up
	for l := start; l <= res.Stats.Levels; l++ {
		ids := c.rec.IDsAtLevel(l)
		if len(ids) != c.n {
			return fmt.Errorf("check: level %d: %d of %d processes recorded an ID (not a partition)",
				l, len(ids), c.n)
		}
		for pid, id := range ids {
			v := res.VHT.NodeByID(id)
			if v == nil {
				return fmt.Errorf("check: level %d: process %d holds ID %d, which is not a VHT node", l, pid, id)
			}
			if v.Level != l {
				return fmt.Errorf("check: process %d's level-%d node %d actually lives at level %d",
					pid, l, id, v.Level)
			}
			if err := c.checkRefinement(v, l, start, basic, pid, prev); err != nil {
				return err
			}
			card[id]++
		}
		prev = ids
	}
	if err := historytree.CheckWeights(res.VHT, res.Stats.Levels, card); err != nil {
		return fmt.Errorf("check: red-edge balance vs ground-truth cardinalities (Lemma 4.4): %w", err)
	}
	return nil
}

// checkRefinement asserts that process pid's node v at level l descends
// from the node the same process held at level l-1 (classes only refine;
// two processes split by level l-1 can never re-merge).
func (c *Checker) checkRefinement(v *historytree.Node, l, start int, basic bool, pid int, prev map[int]int) error {
	if v.Parent == nil {
		return fmt.Errorf("check: level-%d node %d has no parent", l, v.ID)
	}
	switch {
	case l > start:
		if want := prev[pid]; v.Parent.ID != want {
			return fmt.Errorf("check: refinement broken: process %d moved from class %d to class %d, whose parent is %d",
				pid, want, v.ID, v.Parent.ID)
		}
	case basic:
		// Level 1 refines the pre-agreed level 0: leader class ID 0,
		// non-leader class ID 1.
		want := 1
		if c.inputs[pid].Leader {
			want = 0
		}
		if v.Parent.ID != want {
			return fmt.Errorf("check: process %d (leader=%v) holds level-1 class %d under parent %d, want %d",
				pid, c.inputs[pid].Leader, v.ID, v.Parent.ID, want)
		}
	default:
		// The first recorded level hangs off the root.
		if v.Parent.ID != historytree.RootID {
			return fmt.Errorf("check: level-%d node %d's parent is %d, want the root", l, v.ID, v.Parent.ID)
		}
	}
	return nil
}
