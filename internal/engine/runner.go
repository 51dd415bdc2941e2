package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
)

// procDone records a returned process: its output, its error, and the fact
// that the coroutine function actually completed (as opposed to never having
// been resumed to completion).
type procDone struct {
	output   any
	err      error
	finished bool
}

// shard is one contiguous slice [lo, hi) of the process ring. done lists the
// pids that returned during the current phase, in pid order; only the
// goroutine sweeping the shard appends to it. cmd is nil for a runner's
// single inline shard; a worker shard receives one phase per command (true
// for the start phase, false for a deliver phase).
type shard struct {
	lo, hi int
	cmd    chan bool
	done   []int
}

// runner executes one pull coroutine (iter.Pull) per process. Resuming a
// process is a direct coroutine switch: the process runs until its next
// SendAndReceive submission and switches straight back — no channel, no
// scheduler queueing, no goroutine ready/park transitions — so the
// per-round cost is the protocol's own work plus the shared routing.
//
// The process ring is split into contiguous shards. Every round is the
// router's prepare half on the runner's goroutine (accounting, schedule
// lookup, inbox carve-out, Trace — single-threaded, which keeps every shard
// count byte-identical), then one deliver phase per shard: fill the shard's
// inboxes (router.fill(lo, hi)) and resume its waiting processes in pid
// order.
//
//   - One shard (SchedulerSequential) is swept inline on the caller's
//     goroutine: no worker goroutine and no channel operation per round.
//     Each return is merged as it happens, so StopWhen and process errors
//     stop the run mid-sweep and the processes after the trigger are never
//     resumed.
//   - Several shards (SchedulerParallel) are each swept by a worker
//     goroutine behind a two-phase barrier: one command send and one reply
//     receive per shard, which also carry the memory-model edges. Per-process
//     state is indexed by pid and each pid belongs to one shard, so workers
//     never write the same memory. Returns are merged after the barrier in
//     global pid order; a process that runs one round past a stop trigger —
//     unavoidable when its shard already resumed it — still contributes its
//     output, exactly like the unwind.
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

	procs   []Coroutine
	out     [][]Message // this round's routed inboxes, published to workers by the command send
	shards  []shard
	replies chan struct{}
	wg      sync.WaitGroup

	alive   int  // processes that have not returned
	stopped bool // StopWhen held or a process failed
	// stopping is set before the unwind begins, so a non-conforming
	// coroutine that keeps calling SendAndReceive after ErrStopped fails
	// fast instead of blocking on a dead round.
	stopping bool
	runErr   error
}

// newRunner splits n processes into min(workers, n) contiguous shards, at
// least one. A single shard runs inline; more get one worker goroutine each.
func newRunner(ctx context.Context, cfg Config, n, workers int) *runner {
	workers = max(1, min(workers, n))
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
		shards:  make([]shard, workers),
	}
	r.rt = newRouter(&r.cfg, n)
	if workers > 1 {
		r.replies = make(chan struct{}, workers)
	}
	base, rem := n/workers, n%workers
	lo := 0
	for i := range r.shards {
		size := base
		if i < rem {
			size++
		}
		r.shards[i] = shard{lo: lo, hi: lo + size}
		if workers > 1 {
			r.shards[i].cmd = make(chan bool, 1)
		}
		lo += size
	}
	return r
}

// sendAndReceive records the submission, switches control back to whoever
// resumed this process, and continues once its inbox slot has been filled
// and it is resumed again.
func (r *runner) sendAndReceive(t *Transport, msg Message) ([]Message, error) {
	if r.stopping {
		return nil, ErrStopped
	}
	r.state[t.pid] = stateWaiting
	r.pending[t.pid] = msg
	if !r.yield[t.pid](struct{}{}) {
		// The runner called stop: unwind.
		return nil, ErrStopped
	}
	t.round++
	return r.inbox[t.pid], nil
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

// sweep runs one phase of a shard in pid order. The start phase creates and
// first resumes every process; a deliver phase fills the shard's inboxes
// from the prepared round and resumes every process waiting on it. Each
// process runs to its next submission or returns; returns are appended to
// sh.done. An inline sweep (res non-nil) merges each return as it happens
// and abandons the sweep once the run stops.
func (r *runner) sweep(sh *shard, start bool, res *Result) {
	if !start {
		r.rt.fill(sh.lo, sh.hi)
	}
	for pid := sh.lo; pid < sh.hi; pid++ {
		switch {
		case start:
			r.startProc(pid)
		case r.state[pid] != stateWaiting:
			continue
		default:
			r.inbox[pid] = r.out[pid]
		}
		r.state[pid] = stateRunning
		if _, ok := r.next[pid](); ok {
			continue
		}
		r.state[pid] = stateDone
		sh.done = append(sh.done, pid)
		if res != nil && r.merge(res) {
			return
		}
	}
}

// merge folds the returns listed in the shards' done buffers into res in
// global pid order and reports whether the run must stop. A process error or
// a StopWhen hit stops the run; returns merged after that still contribute
// their outputs, never their errors.
func (r *runner) merge(res *Result) bool {
	for i := range r.shards {
		sh := &r.shards[i]
		for _, pid := range sh.done {
			r.alive--
			d := r.done[pid]
			if d.err == nil {
				res.Outputs[pid] = d.output
			}
			switch {
			case r.stopped:
			case d.err != nil && !errors.Is(d.err, ErrStopped):
				r.runErr = fmt.Errorf("engine: process %d: %w", pid, d.err)
				r.stopped = true
			case r.cfg.StopWhen != nil && r.cfg.StopWhen(res.Outputs):
				r.stopped = true
			}
		}
		sh.done = sh.done[:0]
	}
	return r.stopped
}

// phase runs the start phase or one deliver phase over every shard: inline
// for a single shard, otherwise on the workers behind the barrier, merging
// after every shard has replied.
func (r *runner) phase(start bool, res *Result) {
	if len(r.shards) == 1 {
		r.sweep(&r.shards[0], start, res)
		return
	}
	for i := range r.shards {
		r.shards[i].cmd <- start
	}
	for range r.shards {
		<-r.replies
	}
	r.merge(res)
}

// worker sweeps one shard per command and replies on the shared barrier
// channel.
func (r *runner) worker(sh *shard) {
	defer r.wg.Done()
	for start := range sh.cmd {
		r.sweep(sh, start, nil)
		r.replies <- struct{}{}
	}
}

func (r *runner) run(procs []Coroutine) (*Result, error) {
	res := &Result{Outputs: make(map[int]any)}
	if err := r.ctx.Err(); err != nil {
		// Pre-cancelled: never start a process coroutine or a worker.
		return res, fmt.Errorf("engine: run cancelled: %w", context.Cause(r.ctx))
	}
	r.procs = procs
	r.alive = r.n
	for i := range r.shards {
		if r.shards[i].cmd != nil {
			r.wg.Add(1)
			go r.worker(&r.shards[i])
		}
	}

	// Start phase: run every process to its first submission (or return).
	r.phase(true, res)

	// Round loop: every live process is parked with a submission, so the
	// barrier holds by construction. A process resumed mid-sweep re-submits
	// at its own index, which the sweep has already passed, so it is never
	// redelivered within the round.
	for !r.stopped && r.alive > 0 {
		if err := r.ctx.Err(); err != nil {
			r.runErr = fmt.Errorf("engine: run cancelled: %w", context.Cause(r.ctx))
			break
		}
		if err := r.wd.check(r.rt.round); err != nil {
			r.runErr = err
			break
		}
		out, err := r.rt.prepare(r.state, r.pending, res)
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
		r.out = out
		r.phase(false, res)
	}

	// Release the workers before unwinding: once they have exited, every
	// coroutine handle is quiescent and owned by this goroutine (the final
	// barrier replies carry the ordering).
	for i := range r.shards {
		if r.shards[i].cmd != nil {
			close(r.shards[i].cmd)
		}
	}
	r.wg.Wait()
	r.unwind(res)
	res.Rounds = r.rt.round
	return res, r.runErr
}

// unwind releases every parked process with a stop switch, which runs its
// coroutine to completion synchronously; coroutines must return promptly on
// ErrStopped. Outputs produced during the unwind (a process that completed
// rather than propagate ErrStopped) are still collected.
func (r *runner) unwind(res *Result) {
	r.stopping = true
	for pid := range r.state {
		if r.state[pid] != stateWaiting {
			continue
		}
		r.state[pid] = stateDone
		r.stop[pid]()
		if d := r.done[pid]; d.finished && d.err == nil {
			res.Outputs[pid] = d.output
		}
	}
}
