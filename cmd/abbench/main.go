// Command abbench is the same-host A/B gate on the repository benchmark.
// It checks a base revision out in a temporary git worktree and runs every
// workload BENCHMARK.json declares in that worktree and in the current
// tree, in 5 pairs: pair i uses seed i+1 on both sides, and the side that
// runs first alternates, so a drift in the host's speed lands on both.
//
//	make abbench BASE=<rev>     # from the repository root
//
// Each (workload, end-to-end metric) row regresses when the change's
// median is worse than the base's by more than the larger of the metric's
// BENCHMARK.json bound and the base's spread (interquartile distance over
// the median, perfbench/README.md "Steadiness"). Worse by more than the
// bound but within the spread, it is unresolved: printed, not failed.
// Exit status: 1 on a regressed row, a change run with "correct": false,
// more failed operations than the base, or a run without a result line;
// 2 on a usage error; 0 otherwise.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// pairs is how many base/change pairs run per workload.
const pairs = 5

// benchSpec is the part of BENCHMARK.json the gate reads.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is one benchmark run's output: its host line and result line.
type result struct {
	Host    string `json:"-"`
	Correct bool   `json:"correct"`
	Failed  int    `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	code, err := gate(args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "abbench:", err)
	}
	return code
}

// gate runs the pairs and judges them; it returns the exit status and the
// error that decided it, if any.
func gate(args []string, stdout, stderr io.Writer) (int, error) {
	if len(args) != 1 || args[0] == "" {
		return 2, errors.New("usage: abbench <base revision>, run from the repository root")
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil || len(spec.Command) == 0 || len(spec.Workloads) == 0 {
		return 2, fmt.Errorf("read BENCHMARK.json: %v", err)
	}
	baseRev, err := git("rev-parse", "--verify", "--end-of-options", args[0]+"^{commit}")
	if err != nil {
		return 2, err
	}
	changeRev, err := git("rev-parse", "HEAD")
	if err != nil {
		return 2, err
	}
	if st, _ := git("status", "--porcelain", "--untracked-files=no"); st != "" {
		changeRev += " with uncommitted changes"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "abbench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "base")
	if _, err := git("worktree", "add", "--detach", dir, baseRev); err != nil {
		return 1, err
	}
	defer func() {
		if _, err := git("worktree", "remove", "--force", dir); err != nil {
			os.RemoveAll(dir)
			_, _ = git("worktree", "prune") // best effort: the verdict stands either way
		}
	}()

	sides, trees := [2]string{"base", "change"}, [2]string{dir, "."}
	runs := [2]map[string][]result{{}, {}}
	for i := 0; i < pairs; i++ {
		for _, w := range spec.Workloads {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				fmt.Fprintf(stderr, "abbench: pair %d/%d %s %s\n", i+1, pairs, w.Name, sides[side])
				r, err := runOnce(ctx, spec, trees[side], w.Name, i+1, stderr)
				if err != nil {
					return 1, fmt.Errorf("%s run of %s, seed %d: %w", sides[side], w.Name, i+1, err)
				}
				runs[side][w.Name] = append(runs[side][w.Name], r)
			}
		}
	}
	w0 := spec.Workloads[0].Name
	fmt.Fprintf(stdout, "base    %s\n        %s\n", baseRev, runs[0][w0][0].Host)
	fmt.Fprintf(stdout, "change  %s\n        %s\n\n", changeRev, runs[1][w0][0].Host)
	return report(stdout, spec, runs[0], runs[1]), nil
}

// git runs a git command in the current directory and returns its
// trimmed standard output.
func git(args ...string) (string, error) {
	var errOut strings.Builder
	cmd := exec.Command("git", args...)
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// runOnce runs one untraced benchmark run in tree. A run that exits
// non-zero but prints its result line (a wrong answer) is a result, not
// an error.
func runOnce(ctx context.Context, spec benchSpec, tree, workload string, seed int, stderr io.Writer) (result, error) {
	args := slices.Concat(spec.Command[1:], []string{"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(spec.RunSeconds, 'g', -1, 64), "--trace", "0"})
	cmd := exec.CommandContext(ctx, spec.Command[0], args...)
	cmd.Dir, cmd.Stderr = tree, stderr
	out, runErr := cmd.Output()
	r, err := parseRun(out)
	if err != nil {
		return r, errors.Join(err, runErr)
	}
	return r, nil
}

// parseRun reads a benchmark run's standard output: the host line and
// the JSON result line.
func parseRun(out []byte) (result, error) {
	var r result
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "host "):
			r.Host = line
		case strings.HasPrefix(line, "{"):
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return r, fmt.Errorf("parse result line: %w", err)
			}
		}
	}
	if r.Metrics == nil {
		return r, errors.New("no result line")
	}
	return r, nil
}

// report judges every (workload, metric) row, prints the table and the
// failures, and returns the exit status.
func report(w io.Writer, spec benchSpec, base, change map[string][]result) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tchange\tworse by\tbase spread\tbound\tverdict")
	counts := map[string]int{}
	var failures []string
	for _, wl := range spec.Workloads {
		b, c := base[wl.Name], change[wl.Name]
		for _, m := range spec.EndToEnd {
			bq, cq := quartiles(b, m.Name), quartiles(c, m.Name)
			worse, spread := relative(cq[1]-bq[1], bq[1]), relative(bq[2]-bq[0], bq[1])
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > max(m.Bound, spread):
				verdict = "regressed"
				failures = append(failures, fmt.Sprintf("%s / %s regressed: worse by %+.3f, beyond max(bound %.2f, spread %.3f)",
					wl.Name, m.Name, worse, m.Bound, spread))
			case worse > m.Bound:
				verdict = "unresolved"
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.3f\t%.3f\t%.2f\t%s\n", wl.Name, m.Name, bq[1], cq[1], worse, spread, m.Bound, verdict)
		}
		bf, cf, wrong := 0, 0, 0
		for _, r := range b {
			bf += r.Failed
		}
		for _, r := range c {
			cf += r.Failed
			if !r.Correct {
				wrong++
			}
		}
		if wrong > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d change runs reported correct:false", wl.Name, wrong, len(c)))
		}
		if cf > bf {
			failures = append(failures, fmt.Sprintf("%s: %d failed operations in the change's runs, %d in the base's", wl.Name, cf, bf))
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d rows: %d regressed, %d unresolved, %d ok\n",
		len(spec.Workloads)*len(spec.EndToEnd), counts["regressed"], counts["unresolved"], counts["ok"])
	for _, f := range failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Fprintln(w, "PASS")
	return 0
}

// quartiles returns the three quartiles of a metric over runs (at least
// two) by Python's statistics.quantiles(xs, n=4), the exclusive method
// perfbench/README.md uses for spread. The second is the median.
func quartiles(runs []result, metric string) [3]float64 {
	d, m := make([]float64, 0, len(runs)), len(runs)+1
	for _, r := range runs {
		d = append(d, r.Metrics[metric].Value)
	}
	slices.Sort(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - 4*j)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// relative is d as a fraction of base; a nonzero d on a zero base is
// infinite.
func relative(d, base float64) float64 {
	switch {
	case d == 0:
		return 0
	case base == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(base)
}
