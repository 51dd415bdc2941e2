package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a one-workload BENCHMARK.json with the bounds and
// directions of three of the repository's end-to-end metrics.
func testSpec(t *testing.T) benchSpec {
	t.Helper()
	var s benchSpec
	err := json.Unmarshal([]byte(`{"command":["true"],"run_seconds":1,"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"run_s_p50","better":"lower","bound":0.25},
		{"name":"jobs_per_s","better":"higher","bound":0.25},
		{"name":"max_msg_bits","better":"lower","bound":0.05}]}`), &s)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runsOf returns one correct run per value, with metric set to it.
func runsOf(metric string, vals ...float64) []result {
	out := make([]result, len(vals))
	for i, v := range vals {
		out[i].Correct = true
		out[i].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{metric: {Value: v}}
	}
	return out
}

// verdictOf returns the verdict column of metric's row in a report.
func verdictOf(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[1] == metric {
			return f[7]
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, out)
	return ""
}

func TestVerdictRule(t *testing.T) {
	five := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	for _, tc := range []struct {
		name, metric string
		base, change []float64
		verdict      string
		exit         int
	}{
		{"lower-is-better worse beyond bound", "run_s_p50", five(1), five(1.3), "regressed", 1},
		{"higher-is-better worse beyond bound", "jobs_per_s", five(10), five(7), "regressed", 1},
		// Base spread (1.3-0.7)/1 = 0.6 is wider than the 0.25 bound.
		{"worse beyond bound within base spread", "run_s_p50", []float64{0.6, 0.8, 1, 1.2, 1.4}, five(1.3), "unresolved", 0},
		{"worse within bound", "run_s_p50", five(1), five(1.2), "ok", 0},
		{"lower-is-better improvement", "run_s_p50", five(1), five(0.5), "ok", 0},
		{"higher-is-better improvement", "jobs_per_s", five(10), five(20), "ok", 0},
		{"exact count with zero spread beyond 0.05", "max_msg_bits", five(1000), five(1060), "regressed", 1},
		{"exact count within 0.05", "max_msg_bits", five(1000), five(1040), "ok", 0},
		{"from a zero base", "max_msg_bits", five(0), five(1), "regressed", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			code := report(&out, testSpec(t),
				map[string][]result{"w": runsOf(tc.metric, tc.base...)},
				map[string][]result{"w": runsOf(tc.metric, tc.change...)})
			if got := verdictOf(t, out.String(), tc.metric); got != tc.verdict {
				t.Errorf("verdict %s, want %s:\n%s", got, tc.verdict, out.String())
			}
			if code != tc.exit {
				t.Errorf("exit %d, want %d:\n%s", code, tc.exit, out.String())
			}
			if !strings.Contains(out.String(), "3 rows:") {
				t.Errorf("report does not count its rows:\n%s", out.String())
			}
		})
	}
}

func TestGateFailsOnWrongOrFailedRuns(t *testing.T) {
	wrong := runsOf("run_s_p50", 1, 1, 1, 1, 1)
	wrong[3].Correct = false
	moreFailed := runsOf("run_s_p50", 1, 1, 1, 1, 1)
	moreFailed[0].Failed = 2
	baseFailed := runsOf("run_s_p50", 1, 1, 1, 1, 1)
	baseFailed[4].Failed = 2
	for _, tc := range []struct {
		name         string
		base, change []result
		exit         int
		want         string
	}{
		{"change run answered wrong", runsOf("run_s_p50", 1, 1, 1, 1, 1), wrong, 1, "1 of 5 change runs reported correct:false"},
		{"more failed operations", runsOf("run_s_p50", 1, 1, 1, 1, 1), moreFailed, 1, "2 failed operations in the change's runs, 0 in the base's"},
		{"as many failed operations", baseFailed, moreFailed, 0, "PASS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			code := report(&out, testSpec(t), map[string][]result{"w": tc.base}, map[string][]result{"w": tc.change})
			if code != tc.exit || !strings.Contains(out.String(), tc.want) {
				t.Errorf("exit %d, want %d with %q:\n%s", code, tc.exit, tc.want, out.String())
			}
		})
	}
}

// TestQuartilesMatchPython pins the spread definition to the values
// Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
		{[]float64{0.6, 0.8, 1, 1.2, 1.4}, [3]float64{0.7, 1, 1.3}},
		{[]float64{2, 7, 1, 8, 2, 8}, [3]float64{1.75, 4.5, 8}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := quartiles(runsOf("m", tc.xs...), "m")
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestParseRunFixture(t *testing.T) {
	out, err := os.ReadFile(filepath.Join("testdata", "perfbench.out"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Host, "host gomaxprocs=") || !r.Correct || r.Failed != 0 {
		t.Errorf("parsed %+v", r)
	}
	if len(r.Metrics) != 11 || r.Metrics["run_s_p50"].Value != 0.532759613 || r.Metrics["rounds_per_run"].Value != 34 {
		t.Errorf("metrics %+v", r.Metrics)
	}
	if _, err := parseRun([]byte("host gomaxprocs=2\nbuild failed\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {""}, {"a", "b"}, {"HEAD"} /* no BENCHMARK.json in this directory */} {
		var out, errOut strings.Builder
		if code := realMain(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
