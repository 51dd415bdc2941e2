package main

import (
	"io"
	"strings"
	"testing"

	"anondyn/internal/service"
)

func specFor(t *testing.T, n int, topo string, opts func(*service.JobSpec)) service.JobSpec {
	t.Helper()
	spec := service.JobSpec{N: n, Topology: topo, Density: 0.3, Seed: 1}
	if opts != nil {
		opts(&spec)
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec should be valid: %v", err)
	}
	return spec
}

func TestRunLeaderTopologies(t *testing.T) {
	for _, topo := range []string{"random", "path", "cycle", "complete", "star",
		"rotating-star", "shifting-path", "bottleneck", "isolator"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			spec := specFor(t, 5, topo, nil)
			if err := run(spec, true /* tree */, false, io.Discard); err != nil {
				t.Fatalf("run(%s): %v", topo, err)
			}
		})
	}
}

func TestRunVariants(t *testing.T) {
	tests := []struct {
		name string
		spec func(*testing.T) service.JobSpec
	}{
		{name: "leaderless", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 4, "random", func(s *service.JobSpec) {
				s.Leaderless = true
				s.Inputs = []int64{0, 0, 1, 1}
				s.Density = 0.4
				s.Seed = 2
			})
		}},
		{name: "generalized-halt", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 4, "random", func(s *service.JobSpec) {
				s.Inputs = []int64{5, 6, 6, 7}
				s.Halt = true
				s.Density = 0.4
				s.Seed = 2
			})
		}},
		{name: "union-connected", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 4, "random", func(s *service.JobSpec) {
				s.BlockT = 2
				s.Density = 0.5
				s.Seed = 3
			})
		}},
		{name: "keepall", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 4, "random", func(s *service.JobSpec) {
				s.KeepAll = true
				s.Density = 0.5
				s.Seed = 4
			})
		}},
		{name: "bitlimit-generous", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 4, "random", func(s *service.JobSpec) {
				s.BitLimit = 128
				s.Density = 0.4
				s.Seed = 5
			})
		}},
		{name: "faulted-in-model", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 5, "random", func(s *service.JobSpec) {
				s.Faults = "cut:3:20,storm:1:0:2"
				s.Density = 0.4
				s.Seed = 6
			})
		}},
		{name: "faulted-isolator", spec: func(t *testing.T) service.JobSpec {
			return specFor(t, 5, "isolator", func(s *service.JobSpec) {
				s.Faults = "storm:1:0:2"
			})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.spec(t), false, false, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunTraceSummary keeps the -trace plumbing covered: the per-round log
// and summary must reach the writer.
func TestRunTraceSummary(t *testing.T) {
	spec := specFor(t, 5, "shifting-path", func(s *service.JobSpec) {
		s.Fine = true
		s.Batch = 3
	})
	var buf strings.Builder
	if err := run(spec, false, true /* trace */, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace summary", "n = 5", "rounds="} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestValidateFlagCombinations is the up-front usage validation: every bad
// combination must be rejected before any simulation starts.
func TestValidateFlagCombinations(t *testing.T) {
	type args struct {
		n          int
		protocol   string
		topology   string
		density    float64
		seed       int64
		blockT     int
		leaderless bool
		inputs     string
		halt       bool
		bitLimit   int
		fine       bool
		batch      int
		faults     string
		faultSeed  int64
		deadlineMS int
	}
	ok := args{n: 4, protocol: "congested", topology: "random", density: 0.3, seed: 1, blockT: 1}
	tests := []struct {
		name    string
		mut     func(*args)
		wantErr string
	}{
		{name: "valid-baseline", mut: func(a *args) {}, wantErr: ""},
		{name: "linear-protocol-ok", mut: func(a *args) { a.protocol = "linear" }, wantErr: ""},
		{name: "linear-leaderless-ok", mut: func(a *args) { a.protocol = "linear"; a.leaderless = true; a.inputs = "0,0,1,1" },
			wantErr: ""},
		{name: "unknown-protocol", mut: func(a *args) { a.protocol = "quantum" }, wantErr: "unknown protocol"},
		{name: "linear-halt", mut: func(a *args) { a.protocol = "linear"; a.halt = true }, wantErr: "congested-only"},
		{name: "linear-fine", mut: func(a *args) { a.protocol = "linear"; a.fine = true }, wantErr: "congested-only"},
		{name: "linear-batch", mut: func(a *args) { a.protocol = "linear"; a.batch = 3 }, wantErr: "congested-only"},
		{name: "linear-isolator", mut: func(a *args) { a.protocol = "linear"; a.topology = "isolator" },
			wantErr: "isolator"},
		{name: "negative-n", mut: func(a *args) { a.n = -4 }, wantErr: "n must be positive"},
		{name: "zero-n", mut: func(a *args) { a.n = 0 }, wantErr: "n must be positive"},
		{name: "unknown-topology", mut: func(a *args) { a.topology = "nonsense" }, wantErr: "unknown topology"},
		{name: "density-out-of-range", mut: func(a *args) { a.density = 1.7 }, wantErr: "density"},
		{name: "negative-batch", mut: func(a *args) { a.batch = -2 }, wantErr: "batch"},
		{name: "negative-bitlimit", mut: func(a *args) { a.bitLimit = -1 }, wantErr: "bitLimit"},
		{name: "leaderless-without-inputs", mut: func(a *args) { a.leaderless = true },
			wantErr: "requires per-process inputs"},
		{name: "leaderless-halt", mut: func(a *args) { a.leaderless = true; a.inputs = "0,0,1,1"; a.halt = true },
			wantErr: "halt"},
		{name: "leaderless-fine", mut: func(a *args) { a.leaderless = true; a.inputs = "0,0,1,1"; a.fine = true },
			wantErr: "fine-grained"},
		{name: "leaderless-isolator", mut: func(a *args) { a.leaderless = true; a.inputs = "0,0,1,1"; a.topology = "isolator" },
			wantErr: "isolator"},
		{name: "isolator-with-T", mut: func(a *args) { a.topology = "isolator"; a.blockT = 3 }, wantErr: "isolator"},
		{name: "inputs-count-mismatch", mut: func(a *args) { a.inputs = "1,2" }, wantErr: "input values"},
		{name: "inputs-not-numeric", mut: func(a *args) { a.inputs = "a,b,c,d" }, wantErr: "-inputs value"},
		{name: "malformed-faults", mut: func(a *args) { a.faults = "spike:1" }, wantErr: "invalid fault plan"},
		{name: "unknown-fault", mut: func(a *args) { a.faults = "meteor:1:0" }, wantErr: "unknown fault"},
		{name: "crash-pid-out-of-range", mut: func(a *args) { a.faults = "crash:9:1:0"; a.deadlineMS = 100 },
			wantErr: "invalid fault plan"},
		{name: "out-of-model-without-deadline", mut: func(a *args) { a.faults = "drop:1:0:0.5" },
			wantErr: "out-of-model"},
		{name: "negative-deadline", mut: func(a *args) { a.deadlineMS = -5 }, wantErr: "deadlineMS"},
		{name: "in-model-without-deadline-ok", mut: func(a *args) { a.faults = "spike:8:0" }, wantErr: ""},
		{name: "out-of-model-with-deadline-ok", mut: func(a *args) { a.faults = "crash:0:3:0"; a.deadlineMS = 200 },
			wantErr: ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := ok
			tt.mut(&a)
			_, err := buildSpec(a.n, a.protocol, a.topology, a.density, a.seed, a.blockT,
				a.leaderless, a.inputs, a.halt, a.bitLimit, a.fine, a.batch, false,
				a.faults, a.faultSeed, a.deadlineMS)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

// TestProtocolGoldenOutput pins the exact CLI output of both protocol
// backends on one fixed seed — the user-visible face of the rounds-vs-bits
// tradeoff — and of a leaderless three-value run, byte for byte: the
// multiset and frequency lines come out in input order.
func TestProtocolGoldenOutput(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "linear",
			args: []string{"-n", "5", "-seed", "3", "-protocol", "linear"},
			want: `n = 5
input multiset:
  0: 4
  L:0: 1
rounds=7 levels=7 resets=0 finalDiamEstimate=0
messages=35 maxMessageBits=1680 totalBits=22984
`,
		},
		{
			name: "congested",
			args: []string{"-n", "5", "-seed", "3", "-protocol", "congested"},
			want: `n = 5
input multiset:
  0: 4
  L:0: 1
rounds=236 levels=2 resets=2 finalDiamEstimate=4
messages=1180 maxMessageBits=32 totalBits=26280
solver: calls=2 primes=2 crtRecons=1 evictions=0 witnessFalls=0
sharing: applies=35 hits=131 forks=0
`,
		},
		{
			name: "leaderless",
			args: []string{"-n", "6", "-leaderless", "-inputs", "0,0,1,1,2,2"},
			want: `frequencies (shares of minimal size 3):
  input 0: 1/3
  input 1: 1/3
  input 2: 1/3
rounds=284 levels=2 resets=0 finalDiamEstimate=6
messages=1704 maxMessageBits=32 totalBits=43680
solver: calls=3 primes=2 crtRecons=1 evictions=0 witnessFalls=0
sharing: applies=46 hits=230 forks=0
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := realMain(tt.args, &out, &errOut); code != 0 {
				t.Fatalf("exit code %d (stderr: %s)", code, errOut.String())
			}
			if got := out.String(); got != tt.want {
				t.Fatalf("output mismatch:\n got: %q\nwant: %q", got, tt.want)
			}
		})
	}
}

// TestProtocolUsageError pins the exact stderr wording and exit status for
// a protocol/flag conflict, the contract scripts probe for.
func TestProtocolUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := realMain([]string{"-n", "4", "-protocol", "linear", "-halt"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	want := "cadn: invalid usage: halt is congested-only (the linear protocol has no Halt broadcast)\n"
	if errOut.String() != want {
		t.Fatalf("stderr %q, want %q", errOut.String(), want)
	}
}

// TestExitCodes pins the CLI contract: usage errors exit 2, runtime
// failures exit 1, success exits 0.
func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{name: "success", args: []string{"-n", "4", "-seed", "1"}, want: 0},
		{name: "bad-flag", args: []string{"-no-such-flag"}, want: 2},
		{name: "negative-n", args: []string{"-n", "-3"}, want: 2},
		{name: "leaderless-without-inputs", args: []string{"-n", "4", "-leaderless"}, want: 2},
		{name: "negative-batch", args: []string{"-n", "4", "-batch", "-1"}, want: 2},
		{name: "runtime-bitlimit", args: []string{"-n", "4", "-bitlimit", "8"}, want: 1},
		{name: "usage-out-of-model-no-deadline", args: []string{"-n", "4", "-faults", "drop:1:0:1"}, want: 2},
		{name: "runtime-watchdog", args: []string{"-n", "4", "-topology", "complete",
			"-faults", "crash:0:2:0", "-deadline", "150"}, want: 1},
		{name: "linear-success", args: []string{"-n", "4", "-protocol", "linear"}, want: 0},
		{name: "unknown-protocol", args: []string{"-n", "4", "-protocol", "quantum"}, want: 2},
		{name: "linear-halt", args: []string{"-n", "4", "-protocol", "linear", "-halt"}, want: 2},
		// Retired flags are unknown flags, hence usage errors.
		{name: "removed-privatevht", args: []string{"-n", "4", "-privatevht"}, want: 2},
		{name: "removed-arith", args: []string{"-n", "4", "-arith", "big"}, want: 2},
		{name: "removed-scheduler", args: []string{"-n", "4", "-scheduler", "parallel"}, want: 2},
		{name: "removed-eager", args: []string{"-n", "4", "-eager"}, want: 2},
		{name: "removed-compact", args: []string{"-n", "4", "-compact"}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if got := realMain(tt.args, &out, &errOut); got != tt.want {
				t.Fatalf("exit code %d, want %d (stderr: %s)", got, tt.want, errOut.String())
			}
		})
	}
}
