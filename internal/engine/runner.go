package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
)

// procDone records a returned process: its output, its error, and the fact
// that the coroutine function actually completed (as opposed to never having
// been resumed to completion).
type procDone struct {
	output   any
	err      error
	finished bool
}

// runner executes one pull coroutine (iter.Pull) per process, inline on the
// caller's goroutine. Resuming a process is a direct coroutine switch: the
// process runs until its next SendAndReceive or Relay submission and
// switches straight back — no channel, no scheduler queueing, no goroutine
// ready/park transitions — so the per-round cost is the protocol's own work
// plus the shared routing.
//
// Every round routes on the runner's goroutine while every live process is
// parked, then resumes in pid order the waiting processes and the relaying
// ones whose relay just finished; a process still relaying stays parked.
// Each return is merged as it happens, so StopWhen and process errors stop
// the run mid-sweep and the processes after the trigger are never resumed.
type runner struct {
	cfg     Config
	ctx     context.Context
	wd      watchdog
	n       int
	rt      *router
	state   []procState
	pending []Message

	// Per-process pull coroutine: next resumes the process until its next
	// submission (or return), stop unwinds it, yield is the process side of
	// the switch (captured by the coroutine body on first resume), inbox is
	// the delivery slot filled before resuming, and done the output slot the
	// coroutine body fills before returning.
	next  []func() (struct{}, bool)
	stop  []func()
	yield []func(struct{}) bool
	inbox [][]Message
	done  []procDone

	procs []Coroutine
	// stopping is set before the unwind begins, so a non-conforming
	// coroutine that keeps calling SendAndReceive after ErrStopped fails
	// fast instead of blocking on a dead round.
	stopping bool
	runErr   error
}

func newRunner(ctx context.Context, cfg Config, n int) *runner {
	r := &runner{
		cfg:     cfg,
		ctx:     ctx,
		wd:      newWatchdog(cfg.Deadline),
		n:       n,
		state:   make([]procState, n),
		pending: make([]Message, n),
		next:    make([]func() (struct{}, bool), n),
		stop:    make([]func(), n),
		yield:   make([]func(struct{}) bool, n),
		inbox:   make([][]Message, n),
		done:    make([]procDone, n),
	}
	r.rt = newRouter(&r.cfg, n)
	return r
}

// sendAndReceive records the submission, switches control back to the
// runner, and continues once its inbox slot has been filled and it is
// resumed again.
func (r *runner) sendAndReceive(t *Transport, msg Message) ([]Message, error) {
	if r.stopping {
		return nil, ErrStopped
	}
	r.state[t.pid] = stateWaiting
	r.pending[t.pid] = msg
	r.rt.submit(t.pid)
	if !r.yield[t.pid](struct{}{}) {
		// The runner called stop: unwind.
		return nil, ErrStopped
	}
	t.round++
	return r.inbox[t.pid], nil
}

// relay hands the broadcast to the router and switches back to the runner,
// which resumes the process only once the router has woken it.
func (r *runner) relay(t *Transport, msg Message, steps, hold int, wake func(Message) bool) (Message, error) {
	switch {
	case r.stopping:
		return nil, ErrStopped
	case r.cfg.Priority == nil:
		return nil, errNoPriority
	case steps <= 0:
		return msg, nil
	}
	r.state[t.pid] = stateRelaying
	r.pending[t.pid] = msg
	r.rt.startRelay(t.pid, msg, steps, hold, wake)
	start := r.rt.round
	if !r.yield[t.pid](struct{}{}) {
		return nil, ErrStopped
	}
	t.round += r.rt.round - start
	return r.rt.fold[t.pid], nil
}

// startProc creates the pull coroutine for one process. The body captures
// its yield function before running the protocol, so sendAndReceive can
// switch back.
func (r *runner) startProc(pid int) {
	tr := &Transport{pid: pid, b: r}
	proc := r.procs[pid]
	r.next[pid], r.stop[pid] = iter.Pull(func(yield func(struct{}) bool) {
		r.yield[pid] = yield
		out, err := proc.Run(tr)
		r.done[pid] = procDone{output: out, err: err, finished: true}
	})
}

// sweep runs one phase in pid order and reports whether the run must stop.
// The start phase (out nil) creates and first resumes every process; a
// deliver phase hands each waiting process its inbox from out and resumes
// it, and resumes each woken relay. Each process runs to its next
// submission or returns. A process error or a StopWhen hit stops the run
// and abandons the sweep.
func (r *runner) sweep(out [][]Message, res *Result) bool {
	for pid := range r.state {
		switch {
		case out == nil:
			r.startProc(pid)
		case r.state[pid] == stateWaiting:
			r.inbox[pid] = out[pid]
		case r.state[pid] != stateWoken:
			continue
		}
		r.state[pid] = stateRunning
		if _, ok := r.next[pid](); ok {
			continue
		}
		r.state[pid] = stateDone
		r.rt.leave(pid, r.pending)
		d := r.done[pid]
		if d.err == nil {
			res.Outputs[pid] = d.output
		}
		switch {
		case d.err != nil && !errors.Is(d.err, ErrStopped):
			r.runErr = fmt.Errorf("engine: process %d: %w", pid, d.err)
			return true
		case r.cfg.StopWhen != nil && r.cfg.StopWhen(res.Outputs):
			return true
		}
	}
	return false
}

func (r *runner) run(procs []Coroutine) (*Result, error) {
	res := &Result{Outputs: make(map[int]any)}
	if err := r.ctx.Err(); err != nil {
		// Pre-cancelled: never start a process coroutine.
		return res, fmt.Errorf("engine: run cancelled: %w", context.Cause(r.ctx))
	}
	r.procs = procs
	r.rt.open()
	defer r.rt.close()

	// Start phase: run every process to its first submission (or return).
	stopped := r.sweep(nil, res)

	// Round loop: every live process is parked with a submission, so the
	// barrier holds by construction. A process resumed mid-sweep re-submits
	// at its own index, which the sweep has already passed, so it is never
	// redelivered within the round. A round that woke no process (every
	// live one still relaying) needs no sweep. A quiet stretch is one route
	// call, so cancellation, the watchdog and StopWhen are checked once per
	// stretch: no process runs inside one, and outputs change only in a
	// sweep.
	for !stopped && r.rt.live > 0 {
		if err := r.ctx.Err(); err != nil {
			r.runErr = fmt.Errorf("engine: run cancelled: %w", context.Cause(r.ctx))
			break
		}
		if err := r.wd.check(r.rt.round); err != nil {
			r.runErr = err
			break
		}
		out, err := r.rt.route(r.state, r.pending, res)
		if err != nil {
			r.runErr = err
			break
		}
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(res.Outputs) {
			break
		}
		if r.rt.round >= r.cfg.MaxRounds {
			r.runErr = ErrMaxRounds
			break
		}
		if r.rt.ready > 0 {
			stopped = r.sweep(out, res)
		}
	}

	r.unwind(res)
	res.Rounds = r.rt.round
	return res, r.runErr
}

// unwind releases every parked process (waiting, relaying or woken) with a
// stop switch, which runs its coroutine to completion synchronously;
// coroutines must return promptly on ErrStopped. Outputs produced during
// the unwind (a process that completed rather than propagate ErrStopped)
// are still collected.
func (r *runner) unwind(res *Result) {
	r.stopping = true
	for pid := range r.state {
		if s := r.state[pid]; s != stateWaiting && s != stateRelaying && s != stateWoken {
			continue
		}
		r.state[pid] = stateDone
		r.stop[pid]()
		if d := r.done[pid]; d.finished && d.err == nil {
			res.Outputs[pid] = d.output
		}
	}
}
