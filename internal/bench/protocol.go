package bench

import (
	"fmt"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/linear"
)

// E17Params configures E17.
type E17Params struct {
	Ns []int
}

// E17ProtocolTradeoff runs the congested backend and the linear
// full-information backend over the SAME schedules and tabulates the
// measured rounds-vs-bits tradeoff the paper argues from (Sections 1.1
// and 6): the linear protocol terminates in Θ(n) rounds where the
// congested one needs O(n³ log n), but pays with messages that grow to
// Θ(n³ log n) bits where the congested protocol sends O(log n). Both
// counts are cross-checked against each other and against n — this
// table IS the differential suite at experiment scale, not a
// hand-written comparison.
func E17ProtocolTradeoff(p *E17Params) (*Table, error) {
	if p == nil {
		p = &E17Params{Ns: []int{4, 6, 8, 10, 12, 24, 48}}
	}
	t := &Table{
		ID:    "E17",
		Title: "congested vs linear protocol: measured rounds-vs-bits tradeoff",
		Claim: "linear (arXiv 2204.02128): Θ(n) rounds, Θ(n³ log n)-bit messages; " +
			"congested: O(n³ log n) rounds, O(log n)-bit messages — same answers on the same schedules",
		Header: []string{"n", "cong rounds", "cong max bits", "cong total bits",
			"lin rounds", "lin max bits", "lin total bits", "rounds ratio", "bits ratio"},
	}
	t.Rows = make([][]string, len(p.Ns))
	t.Stats = make([]*core.RunStats, len(p.Ns))
	err := sweep(len(p.Ns), func(i int) error {
		n := p.Ns[i]
		mkSched := func() dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.3, 17) }
		cong, err := core.Run(mkSched(), leaderIn(n),
			core.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E17 n=%d congested: %w", n, err)
		}
		lin, err := linear.Run(mkSched(), leaderIn(n),
			linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}, core.RunOptions{})
		if err != nil {
			return fmt.Errorf("E17 n=%d linear: %w", n, err)
		}
		if cong.N != n || lin.N != n {
			return fmt.Errorf("E17 n=%d: protocols counted %d and %d", n, cong.N, lin.N)
		}
		t.Rows[i] = []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", cong.Stats.Rounds),
			fmt.Sprintf("%d", cong.Stats.MaxMessageBits),
			fmt.Sprintf("%d", cong.Stats.TotalBits),
			fmt.Sprintf("%d", lin.Stats.Rounds),
			fmt.Sprintf("%d", lin.Stats.MaxMessageBits),
			fmt.Sprintf("%d", lin.Stats.TotalBits),
			fmt.Sprintf("%.1fx", float64(cong.Stats.Rounds)/float64(lin.Stats.Rounds)),
			fmt.Sprintf("%.1fx", float64(lin.Stats.MaxMessageBits)/float64(cong.Stats.MaxMessageBits)),
		}
		t.Stats[i] = &cong.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
