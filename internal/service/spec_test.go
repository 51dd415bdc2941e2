package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"anondyn/internal/engine"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := JobSpec{N: 4}
	s.Normalize()
	if s.Topology != "random" || s.Density != 0.3 || s.BlockT != 1 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	// Non-random topologies do not consume the density knob.
	s2 := JobSpec{N: 4, Topology: "path", Density: 0.7}
	s2.Normalize()
	if s2.Density != 0 {
		t.Fatalf("density should be cleared for path topology, got %g", s2.Density)
	}
}

func TestSpecHashCanonical(t *testing.T) {
	implicit := JobSpec{N: 5}
	explicit := JobSpec{N: 5, Topology: "random", Density: 0.3, BlockT: 1}
	if implicit.Hash() != explicit.Hash() {
		t.Error("defaulted and explicit specs must hash identically")
	}
	// Density is irrelevant off the random topology, so it must not split
	// the cache key.
	p1 := JobSpec{N: 5, Topology: "path", Density: 0.1}
	p2 := JobSpec{N: 5, Topology: "path", Density: 0.9}
	if p1.Hash() != p2.Hash() {
		t.Error("density must not affect the hash of non-random topologies")
	}
	// Anything that changes the simulation changes the hash.
	base := JobSpec{N: 5, Seed: 1}
	for name, other := range map[string]JobSpec{
		"n":         {N: 6, Seed: 1},
		"seed":      {N: 5, Seed: 2},
		"topo":      {N: 5, Seed: 1, Topology: "cycle"},
		"halt":      {N: 5, Seed: 1, Halt: true},
		"fine":      {N: 5, Seed: 1, Fine: true},
		"batch":     {N: 5, Seed: 1, Batch: 3},
		"inputs":    {N: 5, Seed: 1, Inputs: []int64{1, 2, 3, 4, 5}},
		"faults":    {N: 5, Seed: 1, Faults: "spike:8:0"},
		"faultseed": {N: 5, Seed: 1, Faults: "drop:1:0:0.5", FaultSeed: 2, DeadlineMS: 100},
	} {
		if base.Hash() == other.Hash() {
			t.Errorf("%s: distinct specs hash equal", name)
		}
	}
	// The deadline decides when a wedged run is abandoned, never what a
	// completed run returns, so it must not fragment the result cache.
	d1 := JobSpec{N: 5, Seed: 1, Faults: "spike:8:0"}
	d2 := JobSpec{N: 5, Seed: 1, Faults: "spike:8:0", DeadlineMS: 500}
	if d1.Hash() != d2.Hash() {
		t.Error("deadlineMS must not affect the hash")
	}
	// A fault seed without a fault plan is inert and is normalized away.
	f1 := JobSpec{N: 5, Seed: 1}
	f2 := JobSpec{N: 5, Seed: 1, FaultSeed: 42}
	if f1.Hash() != f2.Hash() {
		t.Error("faultSeed without a plan must not affect the hash")
	}
}

// TestSpecHashGolden pins the content hash of a few specs. The hash keys
// every cached and stored result, so a change to JobSpec's fields or their
// encoding must not move it: removed hash-neutral fields were zeroed and
// omitempty, and their removal leaves these values unchanged.
func TestSpecHashGolden(t *testing.T) {
	for want, spec := range map[string]JobSpec{
		"0df5e4441d5d60d3782b83a74796b6d36c7984c896c0ad30a8144332ef819389": {N: 5},
		"0ad19e613822e831c1df889ca7125a879aa0b26b0693f4e0001da141b08d579a": {N: 5, Seed: 1, Halt: true, Batch: 2},
		"00dbf25cb2b974fc860742ab2852ba497982a3b5e058261c87863dd27f9a3c93": {N: 24, Protocol: "linear"},
		"6f8e9b8ce77b595ebb15a7b11e23da27572662e70a6e3b7594e5ca4793a86d27": {N: 5, Seed: 1, Faults: "spike:8:0"},
	} {
		if got := spec.Hash(); got != want {
			t.Errorf("%+v: hash %s, want %s", spec, got, want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := func(s JobSpec) bool { return s.Validate() == nil }
	if !valid(JobSpec{N: 4}) {
		t.Fatal("minimal spec should validate")
	}
	tests := []struct {
		name string
		spec JobSpec
		want string
	}{
		{name: "zero-n", spec: JobSpec{}, want: "n must be positive"},
		{name: "negative-n", spec: JobSpec{N: -3}, want: "n must be positive"},
		{name: "bad-topology", spec: JobSpec{N: 4, Topology: "torus"}, want: "unknown topology"},
		{name: "bad-density", spec: JobSpec{N: 4, Density: 1.5}, want: "density"},
		{name: "negative-batch", spec: JobSpec{N: 4, Batch: -1}, want: "batch"},
		{name: "negative-bitlimit", spec: JobSpec{N: 4, BitLimit: -8}, want: "bitLimit"},
		{name: "negative-maxrounds", spec: JobSpec{N: 4, MaxRounds: -1}, want: "maxRounds"},
		{name: "inputs-mismatch", spec: JobSpec{N: 4, Inputs: []int64{1, 2}}, want: "input values"},
		{name: "leaderless-no-inputs", spec: JobSpec{N: 4, Leaderless: true}, want: "requires per-process inputs"},
		{name: "leaderless-halt", spec: JobSpec{N: 2, Leaderless: true, Inputs: []int64{1, 2}, Halt: true}, want: "halt"},
		{name: "leaderless-fine", spec: JobSpec{N: 2, Leaderless: true, Inputs: []int64{1, 2}, Fine: true}, want: "fine-grained"},
		{name: "leaderless-isolator", spec: JobSpec{N: 2, Leaderless: true, Inputs: []int64{1, 2}, Topology: "isolator"}, want: "isolator"},
		{name: "isolator-unionT", spec: JobSpec{N: 4, Topology: "isolator", BlockT: 2}, want: "isolator"},
		{name: "malformed-faults", spec: JobSpec{N: 4, Faults: "spike:1"}, want: "invalid fault plan"},
		{name: "crash-pid-beyond-n", spec: JobSpec{N: 4, Faults: "crash:7:1:0", DeadlineMS: 100}, want: "invalid fault plan"},
		{name: "out-of-model-no-deadline", spec: JobSpec{N: 4, Faults: "crash:0:3:0"}, want: "out-of-model"},
		{name: "negative-deadline", spec: JobSpec{N: 4, DeadlineMS: -1}, want: "deadlineMS"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestSpecRunDeterministic(t *testing.T) {
	spec := JobSpec{N: 6, Seed: 3}
	r1, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.N != 6 || r2.N != 6 {
		t.Fatalf("counted %d and %d, want 6", r1.N, r2.N)
	}
	// Timing fields are measurements, not protocol state; blank them
	// before demanding bit-identical stats.
	s1, s2 := r1.Stats, r2.Stats
	s1.WallClock, s1.SolverTime = 0, 0
	s2.WallClock, s2.SolverTime = 0, 0
	if s1 != s2 {
		t.Fatalf("same spec produced different stats:\n%+v\n%+v", s1, s2)
	}
}

func TestSpecRunLeaderless(t *testing.T) {
	spec := JobSpec{N: 4, Topology: "cycle", Leaderless: true, Inputs: []int64{0, 0, 1, 1}}
	res, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := NewResult(res)
	if out.MinSize != 2 || out.Frequencies["0"] != 1 || out.Frequencies["1"] != 1 {
		t.Fatalf("unexpected leaderless answer: %+v", out)
	}
}

func TestSpecRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := JobSpec{N: 8, Topology: "isolator"}.Run(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSpecRunInvalid(t *testing.T) {
	if _, err := (JobSpec{N: -1}).Run(context.Background(), nil); err == nil {
		t.Fatal("invalid spec must not run")
	}
}

func TestSpecRunInModelFaultsStillCount(t *testing.T) {
	clean := JobSpec{N: 6, Seed: 3}
	faulted := JobSpec{N: 6, Seed: 3, Faults: "cut:3:20,storm:1:0:2"}
	r1, err := clean.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := faulted.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.N != 6 || r2.N != 6 {
		t.Fatalf("clean counted %d, faulted counted %d, want 6", r1.N, r2.N)
	}
	if clean.Hash() == faulted.Hash() {
		t.Fatal("a faulted spec must not share the clean spec's cache key")
	}
}

func TestSpecRunWatchdogStructuredFailure(t *testing.T) {
	// An out-of-model plan that wedges the run: every link dropped under
	// simultaneous halt, so the leader halts alone and the rest can never
	// learn the final round. The spec-level deadline must surface as a
	// structured engine watchdog error, not a hang.
	spec := JobSpec{
		N:         5,
		Topology:  "complete",
		Halt:      true,
		Faults:    "drop:1:0:1",
		FaultSeed: 1,

		DeadlineMS: 150,
		MaxRounds:  1 << 30,
	}
	start := time.Now()
	_, err := spec.Run(context.Background(), nil)
	if !errors.Is(err, engine.ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog needed %v", elapsed)
	}
}
