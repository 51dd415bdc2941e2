// Command cadn runs the congested anonymous dynamic network counting
// algorithm over a configurable adversary and prints the result and run
// statistics.
//
// Usage examples:
//
//	go run ./cmd/cadn -n 8                         # random dynamic graph
//	go run ./cmd/cadn -n 8 -topology path          # static path (worst diameter)
//	go run ./cmd/cadn -n 8 -topology shifting-path # dynamic path adversary
//	go run ./cmd/cadn -n 6 -T 4                    # 4-union-connected network
//	go run ./cmd/cadn -n 24 -protocol linear       # full-information backend (Θ(n) rounds)
//	go run ./cmd/cadn -n 6 -leaderless -inputs 0,0,1,1,1,2
//	go run ./cmd/cadn -n 8 -halt                   # simultaneous termination
//	go run ./cmd/cadn -n 6 -topology complete -faults spike:8:0   # reset-forcing fault plan
//	go run ./cmd/cadn -n 6 -faults crash:0:3:0 -deadline 500      # out-of-model, watchdog-guarded
//
// Flag combinations are validated up front; invalid usage exits with
// status 2, runtime failures with status 1. The same parameter surface is
// served over HTTP by cmd/cadnd.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/engine"
	"anondyn/internal/service"
	"anondyn/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses and validates the flags, then runs the simulation. It
// returns the process exit code: 0 on success, 1 on a runtime failure,
// 2 on invalid usage (bad flags or flag combinations).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 8, "number of processes")
		protocol   = fs.String("protocol", "congested", "counting backend: congested (O(log n)-bit messages) or linear (Θ(n) rounds, full-information messages)")
		topology   = fs.String("topology", "random", "adversary: random, path, cycle, complete, star, rotating-star, shifting-path, bottleneck, isolator (adaptive)")
		density    = fs.Float64("p", 0.3, "extra-edge probability for the random adversary")
		seed       = fs.Int64("seed", 1, "adversary RNG seed")
		blockT     = fs.Int("T", 1, "dynamic disconnectivity (T-union-connected extension)")
		leaderless = fs.Bool("leaderless", false, "run the leaderless frequency algorithm (requires -inputs)")
		inputsFlag = fs.String("inputs", "", "comma-separated input values, one per process (enables Generalized Counting)")
		halt       = fs.Bool("halt", false, "simultaneous termination: all processes output n at the same round")
		bitLimit   = fs.Int("bitlimit", 0, "abort if any message exceeds this many bits (0 = off)")
		showTree   = fs.Bool("tree", false, "print the final virtual history tree")
		fine       = fs.Bool("fine", false, "fine-grained resets (Section 5 'Optimized running time')")
		batch      = fs.Int("batch", 0, "batch up to this many observations per Edge message (Section 6 tradeoff)")
		keepAll    = fs.Bool("keepall", false, "ablation: disable the Section 3.4 spanning-tree restriction")
		traceFlag  = fs.Bool("trace", false, "print a per-round protocol trace and summary")
		compact    = fs.Bool("compact", false, "release consumed VHT levels (O(active view) memory; incompatible with faulty resets that rewind far)")
		faultsFlag = fs.String("faults", "", "fault plan layered over the adversary, e.g. spike:8:0 or cut:3:20,storm:1:0:2 (see internal/faults)")
		faultSeed  = fs.Int64("faultseed", 0, "fault-plan RNG seed (only the drop fault consumes it)")
		deadline   = fs.Int("deadline", 0, "watchdog deadline in milliseconds (0 = off; required for out-of-model fault plans)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := buildSpec(*n, *protocol, *topology, *density, *seed, *blockT,
		*leaderless, *inputsFlag, *halt, *bitLimit, *fine, *batch, *keepAll,
		*compact, *faultsFlag, *faultSeed, *deadline)
	if err != nil {
		fmt.Fprintln(stderr, "cadn: invalid usage:", err)
		return 2
	}
	if err := run(spec, *showTree, *traceFlag, stdout); err != nil {
		fmt.Fprintln(stderr, "cadn:", err)
		return 1
	}
	return 0
}

// buildSpec assembles and validates the job spec described by the flags.
// Any error it returns is a usage error (exit status 2).
func buildSpec(n int, protocol, topology string, density float64, seed int64, blockT int,
	leaderless bool, inputsFlag string, halt bool, bitLimit int,
	fine bool, batch int, keepAll bool,
	compact bool, faultsSpec string, faultSeed int64, deadlineMS int) (service.JobSpec, error) {
	spec := service.JobSpec{
		N:          n,
		Protocol:   protocol,
		Topology:   topology,
		Density:    density,
		Seed:       seed,
		BlockT:     blockT,
		Leaderless: leaderless,
		Halt:       halt,
		BitLimit:   bitLimit,
		Fine:       fine,
		Batch:      batch,
		KeepAll:    keepAll,
		CompactVHT: compact,
		Faults:     faultsSpec,
		FaultSeed:  faultSeed,
		DeadlineMS: deadlineMS,
	}
	if inputsFlag != "" {
		parts := strings.Split(inputsFlag, ",")
		spec.Inputs = make([]int64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return spec, fmt.Errorf("-inputs value %d: %v", i, err)
			}
			spec.Inputs[i] = v
		}
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// run executes the validated spec and prints the result.
func run(spec service.JobSpec, showTree, traceOn bool, w io.Writer) error {
	var logger *trace.Logger
	var hook func(round int, sent []engine.Message)
	if traceOn {
		logger = trace.New(w)
		hook = logger.Hook()
	}
	res, err := spec.Run(context.Background(), hook)
	if err != nil {
		return err
	}
	if logger != nil {
		fmt.Fprint(w, logger.Summary())
	}

	if spec.Leaderless {
		fmt.Fprintf(w, "frequencies (shares of minimal size %d):\n", res.Frequencies.MinSize)
		for in, share := range res.Frequencies.Shares {
			fmt.Fprintf(w, "  input %s: %d/%d\n", in, share, res.Frequencies.MinSize)
		}
	} else {
		fmt.Fprintf(w, "n = %d\n", res.N)
		if len(res.Multiset) > 0 {
			fmt.Fprintln(w, "input multiset:")
			for in, c := range res.Multiset {
				fmt.Fprintf(w, "  %s: %d\n", in, c)
			}
		}
	}
	fmt.Fprintf(w, "rounds=%d levels=%d resets=%d finalDiamEstimate=%d\n",
		res.Stats.Rounds, res.Stats.Levels, res.Stats.Resets, res.Stats.FinalDiamEstimate)
	fmt.Fprintf(w, "messages=%d maxMessageBits=%d totalBits=%d\n",
		res.Stats.TotalMessages, res.Stats.MaxMessageBits, res.Stats.TotalBits)
	if res.Stats.SolverPrimes > 0 {
		fmt.Fprintf(w, "solver: calls=%d primes=%d crtRecons=%d evictions=%d witnessFalls=%d\n",
			res.Stats.SolverCalls, res.Stats.SolverPrimes, res.Stats.SolverCRTRecons,
			res.Stats.SolverEvictions, res.Stats.SolverWitnessFalls)
	}
	if res.Stats.CompactedLevels > 0 {
		fmt.Fprintf(w, "compaction: levels=%d nodesFreed=%d resident=%d peakResident=%d\n",
			res.Stats.CompactedLevels, res.Stats.CompactedNodes,
			res.Stats.ResidentNodes, res.Stats.PeakResidentNodes)
	}
	if res.Stats.SharedApplies > 0 {
		fmt.Fprintf(w, "sharing: applies=%d hits=%d forks=%d\n",
			res.Stats.SharedApplies, res.Stats.SharedHits, res.Stats.SharedForks)
	}
	if showTree && res.VHT != nil {
		fmt.Fprintln(w, "virtual history tree:")
		fmt.Fprint(w, anondyn.RenderTree(res.VHT))
	}
	return nil
}
