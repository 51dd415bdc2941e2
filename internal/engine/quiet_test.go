package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// Quiet stretches (DESIGN.md decision 17): a round in which every live
// process relays and holds the top-ranked message starts a stretch that the
// router accounts in one step, up to the earliest relay end or MaxRounds.
// These tests pin a stretch's edges; the relay suites check the stretches
// of mixed runs against the stepwise oracle, which never jumps.

// relayLoop relays msg in relays of steps steps of hold rounds each, one
// after another, until the run stops it.
func relayLoop(msg, steps, hold int) Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		for {
			if _, err := t.Relay(msg, steps, hold, nil); err != nil {
				return nil, err
			}
		}
	})
}

// TestQuietStretchIntoMaxRounds: a stretch that runs into MaxRounds ends
// the run at exactly MaxRounds with ErrMaxRounds and the stepwise oracle's
// Result and Trace stream. Process pid relays 10·pid, so the top message
// spreads along the path for a few rounds before the stretch starts.
func TestQuietStretchIntoMaxRounds(t *testing.T) {
	const n, maxRounds = 4, 50
	for _, tc := range []struct{ steps, hold int }{{math.MaxInt, 1}, {math.MaxInt, 2}, {7, 1}, {5, 3}} {
		t.Run(fmt.Sprintf("steps=%d/hold=%d", tc.steps, tc.hold), func(t *testing.T) {
			var want *Result
			var wantTrace []string
			for i, p := range runPaths {
				log, hook := captureTrace()
				procs := make([]Coroutine, n)
				for pid := range procs {
					procs[pid] = relayLoop(10*pid, tc.steps, tc.hold)
				}
				res, err := p.run(context.Background(), Config{
					Schedule:  dynnet.NewStatic(dynnet.Path(n)),
					MaxRounds: maxRounds,
					Priority:  decadePriority,
					SizeOf:    relaySize,
					Trace:     hook,
				}, procs)
				if !errors.Is(err, ErrMaxRounds) || res.Rounds != maxRounds {
					t.Fatalf("%s: %d rounds and %v, want %d and ErrMaxRounds", p.name, res.Rounds, err, maxRounds)
				}
				if p.name != "coordinator" && res.QuietRounds == 0 {
					t.Errorf("%s jumped no quiet round", p.name)
				}
				if i == 0 {
					want, wantTrace = res, *log
					continue
				}
				assertSameRun(t, p.name, want, res, wantTrace, *log)
			}
		})
	}
}

// TestQuietStretchCancel: the runner checks cancellation once per stretch,
// so a context cancelled inside one ends the run when the stretch ends,
// unwinding every parked relay; the stepwise oracle stops at the round.
// Three processes relay one message in relays of 40 steps, so rounds 1–40
// are one stretch.
func TestQuietStretchCancel(t *testing.T) {
	const cancelAt, stretch = 10, 40
	for _, p := range runPaths {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := p.run(ctx, Config{
			Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
			MaxRounds: 1000,
			Priority:  decadePriority,
			Trace: func(round int, _ []Message) {
				if round == cancelAt {
					cancel()
				}
			},
		}, []Coroutine{relayLoop(7, stretch, 1), relayLoop(7, stretch, 1), relayLoop(7, stretch, 1)})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", p.name, err)
		}
		want, quiet := stretch, stretch
		if p.name == "coordinator" {
			want, quiet = cancelAt, 0
		}
		if res.Rounds != want || res.QuietRounds != quiet {
			t.Errorf("%s: %d rounds, %d quiet, want %d and %d", p.name, res.Rounds, res.QuietRounds, want, quiet)
		}
	}
}

// TestQuietStretchWatchdog: a run of back-to-back stretches that never ends
// is stopped by the watchdog, which the runner checks between stretches, so
// the runner stops at a stretch's end.
func TestQuietStretchWatchdog(t *testing.T) {
	const stretch = 40
	for _, p := range runPaths {
		_, err := p.run(context.Background(), Config{
			Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
			MaxRounds: 1 << 30,
			Deadline:  20 * time.Millisecond,
			Priority:  decadePriority,
		}, []Coroutine{relayLoop(7, stretch, 1), relayLoop(7, stretch, 1), relayLoop(7, stretch, 1)})
		var wderr *WatchdogError
		if !errors.As(err, &wderr) {
			t.Fatalf("%s: err = %v, want a *WatchdogError", p.name, err)
		}
		if wderr.Rounds <= 0 || p.name != "coordinator" && wderr.Rounds%stretch != 0 {
			t.Errorf("%s: watchdog fired after %d rounds, want a positive multiple of %d", p.name, wderr.Rounds, stretch)
		}
	}
}

// TestRelayBitLimitPartialTotals pins the partial Result of a run that a
// BitLimitError ends mid-round: TotalMessages and TotalBits count every
// live process's message in pid order up to and including the offender's,
// as sizing every sent message every round did, and MaxMessageBits is the
// largest message sized by then. The values were recorded before the
// router kept running totals; the first case's violation comes after 7
// quiet rounds.
func TestRelayBitLimitPartialTotals(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		seed       uint64
		limit      int
		round, pid int
		msgs, bits int64
		maxBits    int
	}{
		{5, 0.3, 2, 13, 22, 0, 94, 947, 15},
		{6, 0.3, 1, 14, 23, 1, 131, 1019, 15},
		{7, 0.4, 5, 14, 11, 6, 72, 631, 15},
	} {
		cfg := Config{BitLimit: tc.limit, Schedule: messySchedule(tc.n, tc.p, tc.seed), MaxRounds: 1000}
		res, _, err := runRelays(context.Background(), RunContext, cfg, tc.seed, nil)
		var ble *BitLimitError
		if !errors.As(err, &ble) || ble.Round != tc.round || ble.Process != tc.pid {
			t.Fatalf("n=%d seed=%d: err = %v, want a violation by process %d in round %d", tc.n, tc.seed, err, tc.pid, tc.round)
		}
		if res.TotalMessages != tc.msgs || res.TotalBits != tc.bits || res.MaxMessageBits != tc.maxBits {
			t.Errorf("n=%d seed=%d: partial totals %d messages, %d bits, max %d; want %d, %d, %d",
				tc.n, tc.seed, res.TotalMessages, res.TotalBits, res.MaxMessageBits, tc.msgs, tc.bits, tc.maxBits)
		}
	}
}
