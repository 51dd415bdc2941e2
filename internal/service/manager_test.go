package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// longSpec is a job that runs until it is cancelled: the out-of-model plan
// isolates every process forever, so under Halt the leader stops alone and
// the others can never terminate (TestManagerWatchdogJobFailsStructured
// pins the wedge), and its deadline and round cap lie far beyond any test
// timeout. Unlike a merely slow spec it cannot finish early on a fast host.
func longSpec() JobSpec {
	return JobSpec{N: 5, Topology: "complete", Halt: true, Faults: "drop:1:0:1",
		DeadlineMS: 600_000, MaxRounds: 1 << 30}
}

// longSpecJSON is longSpec as an API request body.
const longSpecJSON = `{"n":5,"topology":"complete","halt":true,"faults":"drop:1:0:1",` +
	`"deadlineMS":600000,"maxRounds":1073741824}`

func quickSpec(seed int64) JobSpec { return JobSpec{N: 5, Seed: seed} }

func TestManagerCancelQueuedJob(t *testing.T) {
	m := NewManager(1, 8, 8) // one worker, so the second job queues
	defer func() { _ = m.Shutdown(contextWithTimeout(t, 30*time.Second)) }()

	running, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job before the worker can reach it.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st, err := WaitTerminal(queued, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Fatalf("queued job state %s, want cancelled", st.State)
	}
	// Cancelling a terminal job conflicts.
	if err := m.Cancel(queued.ID); err != ErrFinished {
		t.Fatalf("double cancel: %v, want ErrFinished", err)
	}
	if err := m.Cancel("job-999999"); err != ErrNotFound {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	// Unblock the worker.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if got := m.Metrics.JobsCancelled.Load(); got != 2 {
		t.Fatalf("jobsCancelled=%d, want 2", got)
	}
}

func TestManagerShutdownDrainsQueue(t *testing.T) {
	m := NewManager(1, 8, 8)
	j1, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(contextWithTimeout(t, 60*time.Second)); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, j := range []*Job{j1, j2} {
		st := j.Status()
		if st.State != JobDone {
			t.Fatalf("job %s state %s after drain, want done", j.ID, st.State)
		}
	}
	if _, err := m.Submit(quickSpec(3)); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestManagerShutdownForceCancelsOnDeadline(t *testing.T) {
	m := NewManager(1, 8, 8)
	job, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running so the force-cancel path (not
	// the queue-drain path) is exercised.
	waitState(t, job, JobRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.Shutdown(ctx)
	if err == nil {
		t.Fatal("expected deadline error from forced shutdown")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
	if st := job.Status(); st.State != JobCancelled {
		t.Fatalf("job state %s after forced shutdown, want cancelled", st.State)
	}
}

func TestManagerQueueFull(t *testing.T) {
	m := NewManager(1, 8, 1)
	defer func() {
		for _, st := range m.Jobs() {
			_ = m.Cancel(st.ID)
		}
		_ = m.Shutdown(contextWithTimeout(t, 30*time.Second))
	}()
	if _, err := m.Submit(longSpec()); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot, then overflow it. The first submit may
	// still be queued or already picked up, so allow one success.
	var sawFull bool
	for i := int64(0); i < 3; i++ {
		if _, err := m.Submit(quickSpec(i)); err == ErrQueueFull {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
}

func waitState(t *testing.T, job *Job, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if job.Status().State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s (now %s)", job.ID, want, job.Status().State)
}

// waitRounds waits until the job has delivered at least one round. By then
// the engine has started every process coroutine, so goroutine counts taken
// afterwards no longer move with the run's start-up.
func waitRounds(t *testing.T, job *Job, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for job.rounds.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s delivered no round within %v (state %s)", job.ID, timeout, job.Status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestManagerWatchdogJobFailsStructured is the service half of the
// out-of-model fault contract: a job whose fault plan wedges the
// simulation must terminate as JobFailed with the watchdog's structured
// error — within its own deadline, without tying up the worker — and be
// counted by the JobsDeadlined metric. It must never be cached.
func TestManagerWatchdogJobFailsStructured(t *testing.T) {
	m := NewManager(1, 8, 8)
	defer func() { _ = m.Shutdown(contextWithTimeout(t, 30*time.Second)) }()

	wedged := JobSpec{
		N:          5,
		Topology:   "complete",
		Halt:       true,
		Faults:     "drop:1:0:1",
		DeadlineMS: 150,
		MaxRounds:  1 << 30,
	}
	job, err := m.Submit(wedged)
	if err != nil {
		t.Fatal(err)
	}
	st, err := WaitTerminal(job, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed {
		t.Fatalf("state %s, want failed (error %q)", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "watchdog") {
		t.Fatalf("error %q does not carry the watchdog detail", st.Error)
	}
	if got := m.Metrics.JobsDeadlined.Load(); got != 1 {
		t.Fatalf("jobsDeadlined=%d, want 1", got)
	}
	if got := m.Metrics.JobsFailed.Load(); got != 1 {
		t.Fatalf("jobsFailed=%d, want 1", got)
	}
	// Failures are not cached: resubmitting simulates again (and fails
	// again) instead of replaying a bogus cached result.
	again, err := m.Submit(wedged)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("a failed run must not populate the result cache")
	}
	st2, err := WaitTerminal(again, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobFailed {
		t.Fatalf("resubmitted state %s, want failed", st2.State)
	}
}

// WaitTerminal blocks until the job reaches a terminal state or the
// timeout elapses, returning the final status. It is a convenience for
// clients (and tests) polling a submitted job.
func WaitTerminal(job *Job, timeout time.Duration) (JobStatus, error) {
	select {
	case <-job.Done():
		return job.Status(), nil
	case <-time.After(timeout):
		return job.Status(), fmt.Errorf("service: job %s not terminal after %v", job.ID, timeout)
	}
}
