package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment end to end, checks the
// tables are well-formed, and requires each table's data rows to equal
// the rows EXPERIMENTS.md records under its "## <ID> —" heading. This is
// the regression gate for EXPERIMENTS.md: a change that moves a number
// fails here until the file is regenerated.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	recorded := recordedRows(string(doc))
	seen := make(map[string]bool)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if seen[e.ID] {
				t.Fatalf("duplicate experiment ID %s", e.ID)
			}
			seen[e.ID] = true
			table, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if table.ID != e.ID {
				t.Errorf("table ID %s, want %s", table.ID, e.ID)
			}
			if table.Claim == "" {
				t.Error("missing paper claim")
			}
			if len(table.Rows) == 0 {
				t.Error("empty table")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Errorf("row %d has %d cells for %d columns", i, len(row), len(table.Header))
				}
			}
			out := Render(table)
			if !strings.Contains(out, e.ID) || !strings.Contains(out, "paper:") {
				t.Errorf("render output malformed:\n%s", out)
			}
			var rows []string
			for _, row := range table.Rows {
				rows = append(rows, "| "+strings.Join(row, " | ")+" |")
			}
			if want := recorded[e.ID]; !slices.Equal(rows, want) {
				t.Errorf("EXPERIMENTS.md is stale for %s; regenerate with `go run ./cmd/experiments -only %s -format markdown`\n got:\n%s\nrecorded:\n%s",
					e.ID, e.ID, strings.Join(rows, "\n"), strings.Join(want, "\n"))
			}
		})
	}
	if len(seen) != 14 {
		t.Errorf("%d experiments, want 14", len(seen))
	}
}

// recordedRows maps each experiment ID to the data rows (header and
// separator dropped) of the first markdown table under its "## <ID> —"
// heading in doc.
func recordedRows(doc string) map[string][]string {
	tables := make(map[string][]string)
	id := ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "## "), " —")
			if _, dup := tables[id]; dup || strings.Contains(id, " ") {
				id = ""
			}
			continue
		}
		switch {
		case id == "":
		case strings.HasPrefix(line, "|"):
			tables[id] = append(tables[id], line)
		case len(tables[id]) > 0:
			id = "" // the first table has ended
		}
	}
	for id, lines := range tables {
		tables[id] = lines[min(2, len(lines)):]
	}
	return tables
}

func TestRenderAlignment(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "test",
		Claim:  "none",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"wide-cell", "1"}},
		Notes:  []string{"a note"},
	}
	out := Render(tbl)
	for _, want := range []string{"EX — test", "wide-cell", "note: a note", "---------"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig1ScheduleShape(t *testing.T) {
	s, inputs := Fig1Schedule()
	if s.N() != 9 || len(inputs) != 9 {
		t.Fatalf("n=%d inputs=%d", s.N(), len(inputs))
	}
	distinct := make(map[int64]bool)
	for _, in := range inputs {
		distinct[in.Value] = true
		if in.Leader {
			t.Error("Figure 1 network has no leaders")
		}
	}
	if len(distinct) != 3 {
		t.Fatalf("%d input values, want 3 (A, B, C)", len(distinct))
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "test",
		Claim:  "claim",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	out := RenderMarkdown(tbl)
	for _, want := range []string{"## EX — test", "**Paper.** claim", "| a | b |", "|---|---|", "| 1 | 2 |", "*note*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q in:\n%s", want, out)
		}
	}
}
