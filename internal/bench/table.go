// Package bench defines the reproduction experiments E1–E11 of DESIGN.md:
// one per figure, lemma, theorem, or comparison in the paper. Each
// experiment runs the relevant systems and produces a Table whose rows are
// recorded in EXPERIMENTS.md and printed by cmd/experiments; the root
// bench_test.go exposes the same runs as testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"anondyn/internal/core"
)

// Table is one experiment's result in printable form.
type Table struct {
	// ID is the experiment identifier (E1..E11).
	ID string
	// Title names the experiment.
	Title string
	// Claim states what the paper claims (the "expected shape").
	Claim string
	// Header and Rows are the measured data.
	Header []string
	Rows   [][]string
	// Stats, when set, holds per-row run measurements aligned with Rows
	// (nil entries mean the row carries none). Their timing fields
	// surface in JSON rows and as trailing lines of the rendered table.
	Stats []*core.RunStats
	// Notes carry caveats and derived observations.
	Notes []string
}

// stats returns row i's measurements, or nil.
func (t *Table) stats(i int) *core.RunStats {
	if i < len(t.Stats) {
		return t.Stats[i]
	}
	return nil
}

// timingLines renders one "key: timing" line per row with stats, keyed by
// the row's first cell.
func timingLines(t *Table) []string {
	var out []string
	for i, row := range t.Rows {
		st := t.stats(i)
		if st == nil || len(row) == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s %s: %s", t.ID, row[0], timingLine(st)))
	}
	return out
}

// timingLine renders where a run's real time went, compactly: the whole
// run's wall clock against the slice inside the cardinality solver, e.g.
// "wall 12.4ms, solver 3.1ms (25%, 17 calls)", then the multi-modular
// solver's counters when it used any primes.
func timingLine(st *core.RunStats) string {
	share := 0.0
	if st.WallClock > 0 {
		share = 100 * float64(st.SolverTime) / float64(st.WallClock)
	}
	s := fmt.Sprintf("wall %.1fms, solver %.1fms (%.0f%%, %d calls)",
		ms(st.WallClock), ms(st.SolverTime), share, st.SolverCalls)
	if st.SolverPrimes > 0 {
		s += fmt.Sprintf(", %d primes, %d crt", st.SolverPrimes, st.SolverCRTRecons)
		if st.SolverEvictions > 0 {
			s += fmt.Sprintf(", %d evictions", st.SolverEvictions)
		}
		if st.SolverWitnessFalls > 0 {
			s += fmt.Sprintf(", %d witness falls", st.SolverWitnessFalls)
		}
	}
	return s
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Experiment couples an ID with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "history tree of the Figure 1 example", Run: func() (*Table, error) { return E1Fig1() }},
		{ID: "E2", Name: "rounds and levels vs n (Theorem 4.8)", Run: func() (*Table, error) { return E2RoundsVsN(nil) }},
		{ID: "E3", Name: "message size vs n (Corollary 4.9)", Run: func() (*Table, error) { return E3MessageBits(nil) }},
		{ID: "E4", Name: "red-edge amortization (Lemma 4.6)", Run: func() (*Table, error) { return E4RedEdges(nil) }},
		{ID: "E5", Name: "diameter estimate and resets (Lemma 4.7)", Run: func() (*Table, error) { return E5DiamEstimate(nil) }},
		{ID: "E7", Name: "token-forwarding comparison", Run: func() (*Table, error) { return E7TokenForward(nil) }},
		{ID: "E8", Name: "leaderless computation (Section 5)", Run: func() (*Table, error) { return E8Leaderless(nil) }},
		{ID: "E9", Name: "T-union-connected networks (Section 5)", Run: func() (*Table, error) { return E9UnionConnected(nil) }},
		{ID: "E10", Name: "virtual network construction (Figure 2)", Run: func() (*Table, error) { return E10Fig2() }},
		{ID: "E11", Name: "simultaneous termination and Generalized Counting", Run: func() (*Table, error) { return E11Generalized(nil) }},
		{ID: "E12", Name: "spanning-tree ablation (Section 3.4 design choice)", Run: func() (*Table, error) { return E12SpanningTreeAblation(nil) }},
		{ID: "E13", Name: "batched-message tradeoff (Section 6)", Run: func() (*Table, error) { return E13BatchingTradeoff(nil) }},
		{ID: "E14", Name: "strongly adaptive isolating adversary", Run: func() (*Table, error) { return E14AdaptiveAdversary(nil) }},
		{ID: "E17", Name: "congested vs linear protocol tradeoff", Run: func() (*Table, error) { return E17ProtocolTradeoff(nil) }},
	}
}

// RenderMarkdown formats the table as GitHub-flavoured markdown, the form
// used in EXPERIMENTS.md.
func RenderMarkdown(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Paper.** %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	for _, line := range timingLines(t) {
		fmt.Fprintf(&b, "\n*%s*\n", line)
	}
	return b.String()
}

// Row is the machine-readable form of one table row: the experiment
// identity plus a column→cell map. Streams of Rows (NDJSON) are the format
// future PRs record as BENCH_*.json to track the perf trajectory.
type Row struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Claim      string            `json:"claim,omitempty"`
	Columns    map[string]string `json:"columns"`
	// WallMS and SolverMS report where the row's real time went (run wall
	// clock vs time inside the cardinality solver, milliseconds), with
	// SolverCalls the number of solver invocations; zero when the
	// experiment recorded no stats. See Table.Stats.
	WallMS      float64 `json:"wall_ms,omitempty"`
	SolverMS    float64 `json:"solver_ms,omitempty"`
	SolverCalls int     `json:"solver_calls,omitempty"`
}

// JSONRows converts the table to its machine-readable rows.
func JSONRows(t *Table) []Row {
	rows := make([]Row, 0, len(t.Rows))
	for ri, r := range t.Rows {
		cols := make(map[string]string, len(t.Header))
		for i, h := range t.Header {
			if i < len(r) {
				cols[h] = r[i]
			}
		}
		row := Row{Experiment: t.ID, Title: t.Title, Claim: t.Claim, Columns: cols}
		if st := t.stats(ri); st != nil {
			row.WallMS = ms(st.WallClock)
			row.SolverMS = ms(st.SolverTime)
			row.SolverCalls = st.SolverCalls
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderJSON formats the table as NDJSON: one JSON object per row.
func RenderJSON(t *Table) string {
	var b strings.Builder
	for _, row := range JSONRows(t) {
		line, err := json.Marshal(row)
		if err != nil {
			// Row contains only strings; marshalling cannot fail.
			panic(fmt.Sprintf("bench: marshal row: %v", err))
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// Render formats the table as aligned plain text.
func Render(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, line := range timingLines(t) {
		fmt.Fprintf(&b, "time: %s\n", line)
	}
	return b.String()
}
