// Command perfbench is the repository benchmark. It runs one named
// workload through the entry points the CLI and daemon use, checks every
// answer, and prints one JSON result line:
//
//	perfbench --workload congested-random --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run; with --trace 1 it carries the per-layer metrics of a traced run,
// timed from outside the program. --smoke runs every workload once at tiny
// sizes and checks the metric names and units against BENCHMARK.json. See
// README.md in this directory for the metrics, layers and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// workload is one named benchmark input set.
type workload interface {
	// setup generates the inputs from the seed and runs one warm-up
	// operation.
	setup(seed int64) error
	// run measures untraced operations for at least d and reports the
	// end-to-end metrics.
	run(d time.Duration) tally
	// trace runs operations untraced and traced in pairs for at least d
	// and reports the per-layer metrics.
	trace(d time.Duration) tally
}

// tally is a measurement's operation counts and metrics.
type tally struct {
	attempted, failed int
	m                 metrics
}

// fail counts a failed operation and reports it.
func (t *tally) fail(err error) {
	t.failed++
	logf("perfbench: failed: %v", err)
}

// logf reports failures on standard error, keeping standard output for
// the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

var workloadNames = []string{"congested-random", "congested-isolator", "linear-random", "service-mix"}

// newWorkload returns the named workload at full or smoke size.
func newWorkload(name string, smoke bool, scratch string) (workload, error) {
	pick := func(full, tiny int) int {
		if smoke {
			return tiny
		}
		return full
	}
	switch name {
	case "congested-random":
		return &countingWorkload{n: pick(96, 12), cases: pick(28, 2)}, nil
	case "congested-isolator":
		return &countingWorkload{n: pick(32, 6), cases: pick(4, 2), isolator: true}, nil
	case "linear-random":
		return &countingWorkload{n: pick(32, 8), cases: pick(16, 2), linear: true}, nil
	case "service-mix":
		return &serviceWorkload{jobs: pick(4000, 200), scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// scratchDir holds the service workload's stores, under the directory
// run.sh keeps its build in.
const scratchDir = ".bench_build/scratch"

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

// perLayer lists every per-layer metric with its unit. A traced run
// reports 0 for the layers its workload does not exercise.
var perLayer = []struct{ name, unit string }{
	{"failed_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.run_s", "s"},
	{"dynnet.graph_s", "s"},
	{"dynnet.graph_share", "fraction"},
	{"adversary.graph_s", "s"},
	{"adversary.graph_share", "fraction"},
	{"engine.round_us_p50", "us"},
	{"engine.round_us_p99", "us"},
	{"engine.messages_per_run", "count"},
	{"wire.sizeof_s", "s"},
	{"wire.bits_per_msg", "bits"},
	{"historytree.solve_s", "s"},
	{"historytree.solve_calls", "count"},
	{"historytree.primes", "count"},
	{"historytree.witness_falls", "count"},
	{"historytree.peak_resident_nodes", "count"},
	{"core.resets", "count"},
	{"core.levels", "count"},
	{"core.shared_hit_ratio", "fraction"},
	{"core.shared_forks", "count"},
	{"core.protocol_s", "s"},
	{"linear.view_s", "s"},
	{"service.submit_us_p50", "us"},
	{"service.submit_us_p99", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.encode_us_p50", "us"},
	{"service.cache_hit_ratio", "fraction"},
	{"service.store_hit_ratio", "fraction"},
	{"service.queue_full", "count"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.bytes", "bytes"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// measure sets up and runs one workload in this process. Each workload
// gets a process of its own, so no other workload's heap shapes its GC
// pacing.
func measure(name string, seed int64, d time.Duration, traced, smoke bool, scratch string) (result, error) {
	w, err := newWorkload(name, smoke, scratch)
	if err != nil {
		return result{}, err
	}
	reps := setupReps
	if traced || smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var t tally
	if traced {
		t = w.trace(d)
		t.m.set("failed_frac", ratio(float64(t.failed), float64(t.attempted)), "fraction")
		for _, l := range perLayer {
			if _, ok := t.m[l.name]; !ok {
				t.m.set(l.name, 0, l.unit)
			}
		}
	} else {
		t = w.run(d)
		t.m.set("setup_s", median(setups), "s")
		t.m.set("peak_rss_mb", peakRSSMB(), "MB")
		t.m.set("ops", float64(t.attempted), "count")
	}
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.m}, nil
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostLine records where a result was measured.
func hostLine() string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	commit += dirty
	return fmt.Sprintf("host gomaxprocs=%d num_cpu=%d go=%s os=%s/%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	smokeRun := flag.Bool("smoke", false, "run every workload once at tiny sizes and check the metric names against BENCHMARK.json")
	flag.Parse()

	if *smokeRun {
		if err := smoke("BENCHMARK.json", scratchDir); err != nil {
			logf("perfbench: smoke: %v", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}
	if (*trace != 0 && *trace != 1) || *seconds < 0 || !slices.Contains(workloadNames, *name) {
		logf("perfbench: need --workload %v, --trace 0|1 and --seconds ≥ 0", workloadNames)
		os.Exit(2)
	}
	res, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, scratchDir)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(hostLine())
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
