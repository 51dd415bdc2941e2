package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// TestNoGoroutineLeaks verifies that Run waits for every process goroutine
// and for the schedule generator before returning — under normal
// completion, early stop, round-budget cancellation, a bit-limit
// violation, a process error, the watchdog and context cancellation alike,
// the last two also across quiet stretches, and on every execution path.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	runs := []struct {
		name string
		do   func(run runFunc) error
	}{
		{name: "normal", do: func(run runFunc) error {
			_, err := run(context.Background(), Config{Schedule: dynnet.NewStatic(dynnet.Cycle(4)), MaxRounds: 10},
				[]Coroutine{echoProc(3), echoProc(3), echoProc(3), echoProc(3)})
			return err
		}},
		{name: "stop-when", do: func(run runFunc) error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			twoRounds := CoroutineFunc(func(tr *Transport) (any, error) {
				for i := 0; i < 2; i++ {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
				return "done", nil
			})
			_, err := run(context.Background(), Config{
				Schedule:  dynnet.NewStatic(dynnet.Path(3)),
				MaxRounds: 100,
				StopWhen:  func(out map[int]any) bool { _, ok := out[0]; return ok },
			}, []Coroutine{twoRounds, forever, forever})
			return err
		}},
		{name: "max-rounds", do: func(run runFunc) error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			_, err := run(context.Background(), Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 3},
				[]Coroutine{forever, forever})
			if err == nil {
				return nil
			}
			return nil // ErrMaxRounds expected
		}},
		{name: "bit-limit", do: func(run runFunc) error {
			_, err := run(context.Background(), Config{
				Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
				MaxRounds: 100,
				SizeOf:    func(Message) int { return 9 },
				BitLimit:  8,
			}, []Coroutine{spinner(), spinner(), spinner()})
			var ble *BitLimitError
			if !errors.As(err, &ble) {
				return fmt.Errorf("err = %v, want a *BitLimitError", err)
			}
			return nil
		}},
		{name: "process-error", do: func(run runFunc) error {
			boom := errors.New("boom")
			failing := CoroutineFunc(func(tr *Transport) (any, error) {
				for tr.Round() < 4 {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
				return nil, boom
			})
			_, err := run(context.Background(), Config{Schedule: dynnet.NewStatic(dynnet.Cycle(3)), MaxRounds: 100},
				[]Coroutine{spinner(), failing, spinner()})
			if !errors.Is(err, boom) {
				return fmt.Errorf("err = %v, want the process's error", err)
			}
			return nil
		}},
		{name: "watchdog", do: func(run runFunc) error {
			_, err := run(context.Background(), Config{
				Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
				MaxRounds: 1 << 30,
				Deadline:  5 * time.Millisecond,
			}, []Coroutine{spinner(), spinner(), spinner()})
			if !errors.Is(err, ErrWatchdog) {
				return fmt.Errorf("err = %v, want ErrWatchdog", err)
			}
			return nil
		}},
		{name: "quiet-watchdog", do: func(run runFunc) error {
			// Back-to-back quiet stretches (relayLoop, quiet_test.go).
			_, err := run(context.Background(), Config{
				Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
				MaxRounds: 1 << 30,
				Deadline:  5 * time.Millisecond,
				Priority:  decadePriority,
			}, []Coroutine{relayLoop(7, 40, 1), relayLoop(7, 40, 2), relayLoop(7, 40, 1)})
			if !errors.Is(err, ErrWatchdog) {
				return fmt.Errorf("err = %v, want ErrWatchdog", err)
			}
			return nil
		}},
		{name: "quiet-cancel", do: func(run runFunc) error {
			// Cancelled inside a quiet stretch, with every process parked
			// mid-relay.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := run(ctx, Config{
				Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
				MaxRounds: 1 << 20,
				Priority:  decadePriority,
				Trace: func(round int, _ []Message) {
					if round == 100 {
						cancel()
					}
				},
			}, []Coroutine{relayLoop(7, 40, 1), relayLoop(7, 40, 1), relayLoop(7, 40, 1)})
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{name: "context-cancel-pre-cancelled", do: func(run runFunc) error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := run(ctx, Config{Schedule: dynnet.NewStatic(dynnet.Path(3)), MaxRounds: 1 << 20},
				[]Coroutine{forever, forever, forever})
			if !errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		}},
		{name: "context-cancel-mid-round", do: func(run runFunc) error {
			// One process stalls before submitting its round-4 message, so
			// the run is parked waiting for it when the cancellation lands — the cancel path must release both the
			// submitted processes (blocked on the round barrier) and, once
			// the straggler wakes, the straggler itself.
			release := make(chan struct{})
			straggler := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if tr.Round() == 3 {
						<-release
					}
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := run(ctx, Config{Schedule: dynnet.NewStatic(dynnet.Cycle(3)), MaxRounds: 1 << 20},
					[]Coroutine{straggler, forever, forever})
				done <- err
			}()
			time.Sleep(5 * time.Millisecond) // let the run reach round 4 and park
			cancel()
			close(release)
			err := <-done
			if !errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		}},
	}
	for _, p := range runPaths {
		for _, r := range runs {
			for i := 0; i < 5; i++ {
				if err := r.do(p.run); err != nil {
					t.Fatalf("%s on %s: %v", r.name, p.name, err)
				}
			}
		}
	}

	if c := busyCores.Load(); c != 0 {
		t.Fatalf("busy-core count %d after every run returned, want 0", c)
	}

	// Let any stragglers finish, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
