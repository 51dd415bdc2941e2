package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// spinner is a coroutine that never terminates: the canonical wedged
// process the watchdog exists for.
func spinner() Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		for {
			if _, err := t.SendAndReceive(0); err != nil {
				return nil, err
			}
		}
	})
}

func TestWatchdogFiresOnAllCoroutineSchedulers(t *testing.T) {
	for _, p := range runPaths {
		cfg := Config{
			Schedule:  dynnet.NewStatic(dynnet.Complete(3)),
			MaxRounds: 1 << 30,
			Deadline:  50 * time.Millisecond,
		}
		start := time.Now()
		_, err := p.run(context.Background(), cfg, []Coroutine{spinner(), spinner(), spinner()})
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("%s: got %v, want ErrWatchdog", p.name, err)
		}
		var wderr *WatchdogError
		if !errors.As(err, &wderr) {
			t.Fatalf("%s: error %v is not a *WatchdogError", p.name, err)
		}
		if wderr.Limit != cfg.Deadline {
			t.Fatalf("%s: reported limit %v, want %v", p.name, wderr.Limit, cfg.Deadline)
		}
		if wderr.Rounds <= 0 {
			t.Fatalf("%s: watchdog fired after %d rounds", p.name, wderr.Rounds)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: watchdog took %v to stop the run", p.name, elapsed)
		}
	}
}

func TestZeroDeadlineNeverFires(t *testing.T) {
	// A terminating run with no deadline must complete normally.
	done := CoroutineFunc(func(t *Transport) (any, error) {
		for r := 0; r < 5; r++ {
			if _, err := t.SendAndReceive(r); err != nil {
				return nil, err
			}
		}
		return "ok", nil
	})
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(2)), MaxRounds: 100}
	res, err := Run(cfg, []Coroutine{done, done})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
}

func TestWatchdogErrorMessageIsStructured(t *testing.T) {
	err := &WatchdogError{Rounds: 17, Limit: 250 * time.Millisecond}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatal("WatchdogError must unwrap to ErrWatchdog")
	}
	msg := err.Error()
	for _, want := range []string{"watchdog", "250ms", "17"} {
		if !contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
