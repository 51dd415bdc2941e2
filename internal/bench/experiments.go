package bench

import (
	"fmt"
	"math"

	"anondyn/internal/baseline"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

// leaderIn returns n inputs with process 0 as the leader.
func leaderIn(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	if n > 0 {
		in[0].Leader = true
	}
	return in
}

// Fig1Schedule returns a 9-process, 3-round dynamic network in the spirit
// of Figure 1 of the paper: inputs from {A, B, C} (encoded 0, 1, 2) and a
// topology that splits the anonymity classes gradually, including the
// figure's hallmark: two processes that remain indistinguishable although
// they are linked to processes that later become distinguishable (because
// those were in the same class at the time of the link).
func Fig1Schedule() (dynnet.Schedule, []historytree.Input) {
	inputs := []historytree.Input{
		{Value: 0}, {Value: 0}, {Value: 0}, // A
		{Value: 1}, {Value: 1}, {Value: 1}, {Value: 1}, // B
		{Value: 2}, {Value: 2}, // C
	}
	g1 := dynnet.NewMultigraph(9)
	g1.MustAddLink(0, 3, 1) // an A meets a B
	g1.MustAddLink(1, 2, 1) // two As meet each other
	g1.MustAddLink(3, 4, 1)
	g1.MustAddLink(4, 7, 1) // a B meets a C
	g1.MustAddLink(5, 8, 1)
	g1.MustAddLink(6, 8, 1) // two Bs meet the same C
	// Round 2 realizes the figure's hallmark: processes 5 and 6 (one class
	// after round 1) link to processes 1 and 2 respectively; 1 and 2 are in
	// one class after round 1 but become distinguishable at round 2 (only 1
	// also hears from 0). Since red edges refer to round-1 classes, 5 and 6
	// remain indistinguishable — the "b4" phenomenon of Figure 1.
	g2 := dynnet.NewMultigraph(9)
	g2.MustAddLink(0, 1, 1)
	g2.MustAddLink(5, 1, 1)
	g2.MustAddLink(6, 2, 1)
	g2.MustAddLink(3, 7, 1)
	g2.MustAddLink(4, 8, 1)
	g3 := dynnet.NewMultigraph(9)
	g3.MustAddLink(0, 8, 1)
	g3.MustAddLink(1, 7, 1)
	g3.MustAddLink(2, 3, 1)
	g3.MustAddLink(4, 5, 1)
	g3.MustAddLink(6, 6, 1) // self-loop: one message to itself
	seq, err := dynnet.NewSequence(g1, g2, g3)
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return seq, inputs
}

// E1Fig1 builds the history tree of the Figure-1-style example network and
// reports its level structure.
func E1Fig1() (*Table, error) {
	s, inputs := Fig1Schedule()
	run, err := historytree.Build(s, inputs, 3)
	if err != nil {
		return nil, err
	}
	if err := run.Tree.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E1",
		Title: "history tree of a 9-process, 3-input example (Figure 1)",
		Claim: "levels partition the processes; classes only refine over time; " +
			"classes may stay merged although their neighbors split later",
		Header: []string{"level", "classes", "red edges", "largest class"},
	}
	for l := 0; l <= run.Tree.Depth(); l++ {
		nodes := run.Tree.Level(l)
		reds := 0
		largest := 0
		for _, v := range nodes {
			reds += len(v.Red)
			if c := run.Card[v.ID]; c > largest {
				largest = c
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("L%d", l),
			fmt.Sprintf("%d", len(nodes)),
			fmt.Sprintf("%d", reds),
			fmt.Sprintf("%d", largest),
		})
	}
	// Verify the figure's hallmark ("b4"): a level-2 class of ≥ 2 processes
	// whose red source at level 1 has children that split at level 2.
	hallmark := false
	for _, v := range run.Tree.Level(2) {
		if run.Card[v.ID] < 2 {
			continue
		}
		for _, e := range v.Red {
			if len(e.Src.Children) >= 2 {
				hallmark = true
			}
		}
	}
	if !hallmark {
		return nil, fmt.Errorf("E1: example lost the Figure 1 merged-class phenomenon")
	}
	t.Notes = append(t.Notes,
		"hallmark verified: a 2-process class stays merged at L2 although its round-2 "+
			"neighbors become distinguishable (they shared a class at round 1)",
		"render the tree with: go run ./cmd/httree -fig1",
		fmt.Sprintf("class counts per level: %v", historytree.LevelSizes(run.Tree)))
	return t, nil
}

// E2Params configures E2.
type E2Params struct {
	Ns    []int
	Seeds int
}

// E2RoundsVsN measures rounds, levels, and resets of the congested
// counting algorithm as n grows (Theorem 4.8: O(n³ log n) rounds, ≤ 3n
// levels).
func E2RoundsVsN(p *E2Params) (*Table, error) {
	if p == nil {
		p = &E2Params{Ns: []int{2, 4, 6, 8, 10, 12}, Seeds: 3}
	}
	t := &Table{
		ID:    "E2",
		Title: "rounds and levels until the leader outputs n",
		Claim: "O(n³ log n) rounds (Theorem 4.8); the view needs at most 3n levels (FOCS'22)",
		Header: []string{"n", "rounds(avg)", "levels(max)", "resets(max)",
			"rounds/n^3", "3n"},
	}
	t.Rows = make([][]string, len(p.Ns))
	t.Stats = make([]*core.RunStats, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		var sumRounds, maxLevels, maxResets int
		sum := &core.RunStats{}
		for seed := 0; seed < p.Seeds; seed++ {
			s := dynnet.NewRandomConnected(n, 0.3, int64(seed+1))
			res, err := core.Run(s, leaderIn(n), core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
				core.RunOptions{})
			if err != nil {
				return fmt.Errorf("E2 n=%d seed=%d: %w", n, seed, err)
			}
			if res.N != n {
				return fmt.Errorf("E2 n=%d seed=%d: counted %d", n, seed, res.N)
			}
			sumRounds += res.Stats.Rounds
			if res.Stats.Levels > maxLevels {
				maxLevels = res.Stats.Levels
			}
			if res.Stats.Resets > maxResets {
				maxResets = res.Stats.Resets
			}
			addTiming(sum, res.Stats)
		}
		avg := float64(sumRounds) / float64(p.Seeds)
		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", avg),
			fmt.Sprintf("%d", maxLevels),
			fmt.Sprintf("%d", maxResets),
			fmt.Sprintf("%.3f", avg/math.Pow(float64(n), 3)),
			fmt.Sprintf("%d", 3*n),
		}
		t.Stats[i] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"rounds/n^3 staying bounded as n grows is the cubic-shape check",
		"random connected schedules; worst-case (path) adversaries appear in E5")
	return t, nil
}

// addTiming adds run st's timing fields, the ones a row renders, into
// sum, for a row over several seeds: times, calls and counts add up, and
// the battery size, a high-water mark, takes the maximum.
func addTiming(sum *core.RunStats, st core.RunStats) {
	sum.WallClock += st.WallClock
	sum.SolverTime += st.SolverTime
	sum.SolverCalls += st.SolverCalls
	sum.SolverPrimes = max(sum.SolverPrimes, st.SolverPrimes)
	sum.SolverCRTRecons += st.SolverCRTRecons
	sum.SolverEvictions += st.SolverEvictions
	sum.SolverWitnessFalls += st.SolverWitnessFalls
}

// E3Params configures E3.
type E3Params struct {
	Ns []int
}

// E3MessageBits measures the largest message (in encoded bits) over entire
// runs as n grows (congestion bound, Corollary 4.9).
func E3MessageBits(p *E3Params) (*Table, error) {
	if p == nil {
		p = &E3Params{Ns: []int{4, 8, 16, 24}}
	}
	t := &Table{
		ID:     "E3",
		Title:  "maximum message size over a full counting run",
		Claim:  "all messages fit in O(log n) bits (Corollary 4.9)",
		Header: []string{"n", "max bits", "bits/log2(n)", "total msgs"},
	}
	t.Rows = make([][]string, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		s := dynnet.NewRandomConnected(n, 0.3, 7)
		res, err := core.Run(s, leaderIn(n), core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
			core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E3 n=%d: %w", n, err)
		}
		if res.N != n {
			return fmt.Errorf("E3 n=%d: counted %d", n, res.N)
		}
		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Stats.MaxMessageBits),
			fmt.Sprintf("%.2f", float64(res.Stats.MaxMessageBits)/math.Log2(float64(n))),
			fmt.Sprintf("%d", res.Stats.TotalMessages),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "compare the non-congested protocol's Θ(n³ log n)-bit views in E17")
	return t, nil
}

// E4Params configures E4.
type E4Params struct {
	Ns []int
}

// E4RedEdges compares the red-edge count of the protocol's VHT against the
// generic worst-case history tree (all processes distinguished at round 1,
// complete graph afterwards), per Lemma 4.6.
func E4RedEdges(p *E4Params) (*Table, error) {
	if p == nil {
		p = &E4Params{Ns: []int{4, 6, 8, 10, 12}}
	}
	t := &Table{
		ID:    "E4",
		Title: "red edges in the first levels: VHT vs generic history tree",
		Claim: "VHT: O(n²) red edges over O(n) levels (Lemma 4.6); generic trees reach Θ(n³)",
		Header: []string{"n", "VHT levels", "VHT red", "VHT red/n^2",
			"generic red (3n lvls)", "generic red/n^3"},
	}
	t.Rows = make([][]string, len(p.Ns))
	t.Stats = make([]*core.RunStats, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		s := dynnet.NewRandomConnected(n, 0.5, 3)
		res, err := core.Run(s, leaderIn(n), core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
			core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E4 n=%d: %w", n, err)
		}
		vhtRed := res.VHT.RedEdgeCount(-1)

		// Generic worst case: all-distinct inputs on the complete graph.
		inputs := make([]historytree.Input, n)
		for j := range inputs {
			inputs[j].Value = int64(j)
		}
		run, err := historytree.Build(dynnet.NewStatic(dynnet.Complete(n)), inputs, 3*n)
		if err != nil {
			return err
		}
		genericRed := run.Tree.RedEdgeCount(-1)

		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Stats.Levels),
			fmt.Sprintf("%d", vhtRed),
			fmt.Sprintf("%.2f", float64(vhtRed)/float64(n*n)),
			fmt.Sprintf("%d", genericRed),
			fmt.Sprintf("%.2f", float64(genericRed)/float64(n*n*n)),
		}
		t.Stats[i] = &res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E5Params configures E5.
type E5Params struct {
	Ns []int
}

// E5DiamEstimate checks Lemma 4.7 on the highest-diameter adversary in the
// suite (shifting paths): the final diameter estimate never exceeds 4n and
// the number of resets is O(log n).
func E5DiamEstimate(p *E5Params) (*Table, error) {
	if p == nil {
		p = &E5Params{Ns: []int{3, 5, 7, 9, 11}}
	}
	t := &Table{
		ID:     "E5",
		Title:  "diameter estimation under path adversaries",
		Claim:  "DiamEstimate ≤ 4n (Lemma 4.7); ≤ log₂(4n) resets",
		Header: []string{"n", "rounds", "resets", "final diam", "4n", "log2(4n)"},
	}
	t.Rows = make([][]string, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		s := dynnet.NewShiftingPath(n)
		res, err := core.Run(s, leaderIn(n), core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
			core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E5 n=%d: %w", n, err)
		}
		if res.N != n {
			return fmt.Errorf("E5 n=%d: counted %d", n, res.N)
		}
		if res.Stats.FinalDiamEstimate > 4*n {
			return fmt.Errorf("E5 n=%d: final estimate %d exceeds 4n", n, res.Stats.FinalDiamEstimate)
		}
		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%d", res.Stats.Resets),
			fmt.Sprintf("%d", res.Stats.FinalDiamEstimate),
			fmt.Sprintf("%d", 4*n),
			fmt.Sprintf("%.1f", math.Log2(float64(4*n))),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E7Params configures E7.
type E7Params struct {
	Ns []int
}

// E7TokenForward contrasts the randomized token-forwarding comparator with
// the paper's algorithm along the three axes of Section 1.2: exactness,
// a-priori knowledge, and determinism.
func E7TokenForward(p *E7Params) (*Table, error) {
	if p == nil {
		p = &E7Params{Ns: []int{4, 6, 8, 10}}
	}
	t := &Table{
		ID:    "E7",
		Title: "token-forwarding (randomized, needs bound N≥n) vs this work",
		Claim: "token dissemination solves approximate counting in O(N²) rounds w.h.p.; " +
			"the paper's algorithm is exact, deterministic, and needs no bound",
		Header: []string{"n", "tf rounds", "tf estimate", "tf exact?", "cong rounds", "cong exact?"},
	}
	for _, n := range p.Ns {
		s := dynnet.NewRandomConnected(n, 0.3, 23)
		tf, err := baseline.RunTokenForward(s, n, 1234)
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d: %w", n, err)
		}
		res, err := core.Run(s, leaderIn(n), core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 6},
			core.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d congested: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", tf.Rounds),
			fmt.Sprintf("%d", tf.Estimate),
			fmt.Sprintf("%v", tf.Estimate == n),
			fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%v", res.N == n),
		})
	}
	t.Notes = append(t.Notes,
		"token forwarding assumes the bound N = n here (best case for the baseline)",
		"unique random tokens forfeit the anonymity that motivates the paper")
	return t, nil
}

// E8Params configures E8.
type E8Params struct {
	Ns []int
}

// E8Leaderless measures the leaderless frequency computation (Section 5):
// O(D·n²) rounds with a known diameter bound D.
func E8Leaderless(p *E8Params) (*Table, error) {
	if p == nil {
		p = &E8Params{Ns: []int{4, 6, 8, 10}}
	}
	t := &Table{
		ID:     "E8",
		Title:  "leaderless frequency computation with known diameter bound",
		Claim:  "O(D·n²) rounds; exact input frequencies; simultaneous termination",
		Header: []string{"n", "D", "rounds", "rounds/(D·n²)", "min size", "correct?"},
	}
	t.Rows = make([][]string, len(p.Ns))
	t.Stats = make([]*core.RunStats, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		inputs := make([]historytree.Input, n)
		for j := range inputs {
			inputs[j].Value = int64(j % 2)
		}
		s := dynnet.NewRandomConnected(n, 0.4, 29)
		d := n // dynamic diameter of a connected n-network is < n
		res, err := core.Run(s, inputs, core.Config{Mode: core.ModeLeaderless, DiamBound: d, MaxLevels: 3*n + 6},
			core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E8 n=%d: %w", n, err)
		}
		f := res.Frequencies
		zeros := (n + 1) / 2
		g := gcd(zeros, n-zeros)
		correct := f.Known &&
			f.Shares[historytree.Input{Value: 0}] == zeros/g &&
			f.Shares[historytree.Input{Value: 1}] == (n-zeros)/g &&
			f.MinSize == n/g
		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%.3f", float64(res.Stats.Rounds)/float64(d*n*n)),
			fmt.Sprintf("%d", f.MinSize),
			fmt.Sprintf("%v", correct),
		}
		t.Stats[i] = &res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E9Params configures E9.
type E9Params struct {
	N  int
	Ts []int
}

// E9UnionConnected measures the T-union-connected extension: rounds must
// grow linearly in T, in contrast to the exponential dependence of the
// Kowalski–Mosteiro Õ(n^{2T(1+ε)+3}) baseline.
func E9UnionConnected(p *E9Params) (*Table, error) {
	if p == nil {
		p = &E9Params{N: 6, Ts: []int{1, 2, 4, 8}}
	}
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("T-union-connected networks, n=%d", p.N),
		Claim:  "O(T·n³) rounds — linear in T; the prior state of the art is exponential in T",
		Header: []string{"T", "rounds", "rounds/T", "KM shape n^(2T+3)"},
	}
	base := 0
	for _, bt := range p.Ts {
		inner := dynnet.NewRandomConnected(p.N, 0.5, 31)
		var s dynnet.Schedule = inner
		if bt > 1 {
			uc, err := dynnet.NewUnionConnected(inner, bt)
			if err != nil {
				return nil, err
			}
			s = uc
		}
		res, err := core.Run(s, leaderIn(p.N), core.Config{Mode: core.ModeLeader, BlockT: bt, MaxLevels: 3*p.N + 6},
			core.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("E9 T=%d: %w", bt, err)
		}
		if res.N != p.N {
			return nil, fmt.Errorf("E9 T=%d: counted %d", bt, res.N)
		}
		if base == 0 {
			base = res.Stats.Rounds
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bt),
			fmt.Sprintf("%d", res.Stats.Rounds),
			fmt.Sprintf("%d", res.Stats.Rounds/bt),
			fmt.Sprintf("%.1e", math.Pow(float64(p.N), float64(2*bt+3))),
		})
	}
	t.Notes = append(t.Notes, "the KM column is the analytic round bound of the prior work, not a run")
	return t, nil
}

// E10Fig2 runs one level of the protocol on a 9-process, 3-class network
// mirroring Figure 2 and reports the virtual-network construction: the
// level graph must be a spanning tree on the classes and every class keeps
// its cycle C_v.
func E10Fig2() (*Table, error) {
	// Three initial classes as in the figure: sizes 4, 4, 1.
	inputs := []historytree.Input{
		{Leader: true},
		{Value: 1}, {Value: 1}, {Value: 1}, {Value: 1},
		{Value: 2}, {Value: 2}, {Value: 2}, {Value: 2},
	}
	n := len(inputs)
	s := dynnet.NewRandomConnected(n, 0.6, 41)
	rec := core.NewRecorder()
	cfg := core.Config{Mode: core.ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 6, Recorder: rec}
	res, err := core.Run(s, inputs, cfg, core.RunOptions{})
	if err != nil {
		return nil, err
	}
	if res.N != n {
		return nil, fmt.Errorf("E10: counted %d, want %d", res.N, n)
	}
	t := &Table{
		ID:    "E10",
		Title: "virtual network construction (Figure 2 semantics)",
		Claim: "per level: inter-class links restricted to a spanning tree S of H, " +
			"plus one cycle C_v per class; red edges per level stay O(n)",
		Header: []string{"level", "classes", "red edges", "inter-class", "intra (C_v)"},
	}
	for l := 1; l <= res.VHT.Depth(); l++ {
		classes := len(res.VHT.Level(l))
		inter, intra := 0, 0
		for _, v := range res.VHT.Level(l) {
			for _, e := range v.Red {
				if e.Src == v.Parent {
					intra++
				} else {
					inter++
				}
			}
		}
		prev := len(res.VHT.Level(l - 1))
		// A spanning tree on `prev` classes has prev-1 edges; each class
		// contributes one intra (cycle) edge per child chain.
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("L%d", l),
			fmt.Sprintf("%d", classes),
			fmt.Sprintf("%d", inter+intra),
			fmt.Sprintf("%d (tree on %d: %d)", inter, prev, prev-1),
			fmt.Sprintf("%d", intra),
		})
	}
	edges, dones, inputsAcc := rec.Accepted()
	t.Notes = append(t.Notes,
		fmt.Sprintf("accepted messages: %d edges, %d dones, %d inputs; resets: %d",
			edges, dones, inputsAcc, rec.Resets()))
	return t, nil
}

// E11Params configures E11.
type E11Params struct {
	N int
}

// E11Generalized runs Generalized Counting with simultaneous termination:
// all processes output the same n at the same round, and the leader's
// multiset (without halt) matches the input assignment exactly.
func E11Generalized(p *E11Params) (*Table, error) {
	if p == nil {
		p = &E11Params{N: 8}
	}
	n := p.N
	inputs := make([]historytree.Input, n)
	inputs[0].Leader = true
	for i := range inputs {
		inputs[i].Value = int64(i % 3)
	}
	s := dynnet.NewRandomConnected(n, 0.4, 37)

	// Run 1: multiset recovery (leader-only termination keeps the tree).
	res, err := core.Run(s, inputs, core.Config{Mode: core.ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 6},
		core.RunOptions{})
	if err != nil {
		return nil, err
	}
	// Run 2: simultaneous halt.
	halt, err := core.Run(s, inputs,
		core.Config{Mode: core.ModeLeader, BuildInputLevel: true, SimultaneousHalt: true, MaxLevels: 3*n + 6},
		core.RunOptions{})
	if err != nil {
		return nil, err
	}

	want := make(map[historytree.Input]int)
	for _, in := range inputs {
		want[in]++
	}
	t := &Table{
		ID:     "E11",
		Title:  fmt.Sprintf("Generalized Counting and simultaneous termination, n=%d", n),
		Claim:  "the leader recovers the exact input multiset; with Halt, all processes output n at one round",
		Header: []string{"input", "true count", "computed"},
	}
	allMatch := true
	for _, in := range inputs { // input order, so the rows are deterministic
		c, ok := want[in]
		if !ok {
			continue
		}
		delete(want, in)
		got := res.Multiset[in]
		if got != c {
			allMatch = false
		}
		t.Rows = append(t.Rows, []string{in.String(), fmt.Sprintf("%d", c), fmt.Sprintf("%d", got)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("multiset exact: %v; n=%d", allMatch, res.N),
		fmt.Sprintf("simultaneous halt: n=%d, %d/%d processes output at one round (verified by core.Run)",
			halt.N, len(halt.Outputs), n))
	return t, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
