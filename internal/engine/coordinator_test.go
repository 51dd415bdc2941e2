package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// The goroutine-per-process coordinator is the equivalence oracle for the
// production runner: every process runs on its own goroutine and talks to a
// central select-based event loop over channels, so control moves between
// processes in a completely different way while routing goes through the
// same router. It also gives the race detector real cross-goroutine
// interleavings to check. It lives in test code only.

type event struct {
	pid    int
	msg    Message // valid when kind == evSubmit
	output any     // valid when kind == evDone
	err    error   // valid when kind == evDone
	kind   evKind
}

type evKind int

const (
	evSubmit evKind = iota + 1
	evDone
)

type coordinator struct {
	cfg    Config
	ctx    context.Context
	wd     watchdog
	n      int
	rt     *router
	events chan event
	stop   chan struct{}
	inbox  []chan []Message
	state  []procState

	pending []Message // message submitted by each process this round
}

// runCoordinator is RunContext on the coordinator oracle.
func runCoordinator(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error) {
	n, err := cfg.validate(len(procs))
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		cfg:     cfg,
		ctx:     ctx,
		wd:      newWatchdog(cfg.Deadline),
		n:       n,
		events:  make(chan event),
		stop:    make(chan struct{}),
		inbox:   make([]chan []Message, n),
		state:   make([]procState, n),
		pending: make([]Message, n),
	}
	c.rt = newRouter(&c.cfg, n)
	for i := range c.inbox {
		c.inbox[i] = make(chan []Message, 1)
	}
	return c.run(procs)
}

func (c *coordinator) sendAndReceive(t *Transport, msg Message) ([]Message, error) {
	select {
	case c.events <- event{pid: t.pid, kind: evSubmit, msg: msg}:
	case <-c.stop:
		return nil, ErrStopped
	}
	// A delivery that has already been made must win over cancellation:
	// the round completed for every participant, so this process is
	// entitled to observe it (otherwise behaviour at the final round would
	// depend on goroutine scheduling).
	select {
	case msgs := <-c.inbox[t.pid]:
		t.round++
		return msgs, nil
	default:
	}
	select {
	case msgs := <-c.inbox[t.pid]:
		t.round++
		return msgs, nil
	case <-c.stop:
		return nil, ErrStopped
	}
}

// relay is the stepwise reference for Transport.Relay: one sendAndReceive
// per round, each step folding its deliveries in inbox order into the
// highest message by Config.Priority, a message replacing the fold only
// when strictly higher, and wake checked on the fold at every step's end.
func (c *coordinator) relay(t *Transport, msg Message, steps, hold int, wake func(Message) bool) (Message, error) {
	if c.cfg.Priority == nil {
		return nil, errNoPriority
	}
	hold = max(hold, 1)
	for s := 0; s < steps; s++ {
		fold := msg
		for h := 0; h < hold; h++ {
			in, err := c.sendAndReceive(t, msg)
			if err != nil {
				return nil, err
			}
			for _, m := range in {
				if c.cfg.Priority(m, fold) > 0 {
					fold = m
				}
			}
		}
		msg = fold
		if wake != nil && wake(msg) {
			break
		}
	}
	return msg, nil
}

func (c *coordinator) run(procs []Coroutine) (*Result, error) {
	res := &Result{Outputs: make(map[int]any)}
	c.rt.open()
	defer c.rt.close()
	var wg sync.WaitGroup
	for i := range procs {
		c.state[i] = stateRunning
		tr := &Transport{pid: i, b: c}
		proc := procs[i]
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			out, err := proc.Run(tr)
			select {
			case c.events <- event{pid: pid, kind: evDone, output: out, err: err}:
			case <-c.stop:
			}
		}(i)
	}

	var runErr error
	alive, waiting := c.n, 0

	// The watchdog is observed both per event-loop iteration and, via a
	// timer, while blocked waiting for submissions — a wedged coroutine
	// (one that never submits again) would otherwise hang the select.
	var wdC <-chan time.Time
	if c.wd.limit > 0 {
		timer := time.NewTimer(time.Until(c.wd.deadline))
		defer timer.Stop()
		wdC = timer.C
	}

loop:
	for {
		if err := c.ctx.Err(); err != nil {
			runErr = fmt.Errorf("engine: run cancelled: %w", context.Cause(c.ctx))
			break
		}
		if err := c.wd.check(c.rt.round); err != nil {
			runErr = err
			break
		}
		if alive == 0 {
			break // every process returned
		}
		if waiting == alive {
			// Round barrier reached: deliver.
			if err := c.deliver(res); err != nil {
				runErr = err
				break
			}
			waiting = 0
			if c.cfg.StopWhen != nil && c.cfg.StopWhen(res.Outputs) {
				break
			}
			if c.rt.round >= c.cfg.MaxRounds {
				runErr = ErrMaxRounds
				break
			}
			continue
		}
		var ev event
		select {
		case ev = <-c.events:
		case <-wdC:
			runErr = &WatchdogError{Rounds: c.rt.round, Limit: c.wd.limit}
			break loop
		case <-c.ctx.Done():
			runErr = fmt.Errorf("engine: run cancelled: %w", context.Cause(c.ctx))
			break loop
		}
		switch ev.kind {
		case evSubmit:
			c.state[ev.pid] = stateWaiting
			c.pending[ev.pid] = ev.msg
			c.rt.submit(ev.pid)
			waiting++
		case evDone:
			if c.state[ev.pid] == stateWaiting {
				waiting--
			}
			c.state[ev.pid] = stateDone
			c.rt.leave(ev.pid, c.pending)
			alive--
			if ev.err != nil && !errors.Is(ev.err, ErrStopped) {
				runErr = fmt.Errorf("engine: process %d: %w", ev.pid, ev.err)
				break loop
			}
			if ev.err == nil {
				res.Outputs[ev.pid] = ev.output
			}
			if c.cfg.StopWhen != nil && c.cfg.StopWhen(res.Outputs) {
				break loop
			}
		}
	}

	close(c.stop)
	wg.Wait()
	// Collect outputs from processes that finished during shutdown.
	for {
		select {
		case ev := <-c.events:
			if ev.kind == evDone && ev.err == nil {
				res.Outputs[ev.pid] = ev.output
			}
		default:
			res.Rounds = c.rt.round
			return res, runErr
		}
	}
}

// deliver completes one round: it routes the pending messages through the
// shared router and releases the waiting processes.
func (c *coordinator) deliver(res *Result) error {
	out, err := c.rt.route(c.state, c.pending, res)
	if err != nil {
		return err
	}
	for pid, s := range c.state {
		if s != stateWaiting {
			continue
		}
		c.state[pid] = stateRunning
		c.inbox[pid] <- out[pid]
	}
	return nil
}
