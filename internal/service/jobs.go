package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"anondyn/internal/engine"
	"anondyn/internal/store"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Queued and Running are transient; Done, Failed and
// Cancelled are terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Event is one NDJSON line of a job's event stream: a state transition or
// one round of simulation progress.
type Event struct {
	// Type is "state" for lifecycle transitions and "round" for progress.
	Type string `json:"type"`
	// State accompanies "state" events.
	State JobState `json:"state,omitempty"`
	// Round and Messages accompany "round" events: the round number just
	// completed and how many messages were sent in it.
	Round    int `json:"round,omitempty"`
	Messages int `json:"messages,omitempty"`
	// Error accompanies the terminal "state" event of a failed job.
	Error string `json:"error,omitempty"`
}

// Job is one submitted simulation.
type Job struct {
	// ID is the manager-assigned identifier.
	ID string
	// Spec is the normalized job specification.
	Spec JobSpec
	// Hash is Spec.Hash(), the result-cache key.
	Hash string
	// CacheHit records that the job was served from the result cache
	// without simulating.
	CacheHit bool

	rounds atomic.Int64 // rounds completed so far (progress gauge)

	mu     sync.Mutex
	state  JobState
	err    string
	result *Result
	cancel context.CancelFunc // set while running
	done   chan struct{}      // closed on terminal transition
	subs   map[int]chan Event
	subSeq int
}

// JobStatus is the JSON view of a job served by the HTTP API.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Spec     JobSpec  `json:"spec"`
	Hash     string   `json:"hash"`
	CacheHit bool     `json:"cacheHit,omitempty"`
	Rounds   int64    `json:"rounds"`
	Error    string   `json:"error,omitempty"`
	Result   *Result  `json:"result,omitempty"`
}

// Status captures the job's current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.ID,
		State:    j.state,
		Spec:     j.Spec,
		Hash:     j.Hash,
		CacheHit: j.CacheHit,
		Rounds:   j.rounds.Load(),
		Error:    j.err,
		Result:   j.result,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe registers an event listener. The returned channel receives
// lifecycle and progress events and is closed when the job terminates (or
// immediately if it already has); progress events are dropped rather than
// delivered late when the subscriber falls behind. The returned func
// unsubscribes early.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := j.subSeq
	j.subSeq++
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// publish fans an event out to subscribers, dropping it for any subscriber
// whose buffer is full. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish transitions the job to a terminal state, records the outcome, and
// releases waiters and subscribers. It is a no-op if the job already
// terminated (e.g. cancelled while the worker was finishing). Otherwise it
// adds one to each counter before releasing waiters, so whoever sees the
// job terminal also sees it counted.
func (j *Job) finish(s JobState, r *Result, errMsg string, counters ...*atomic.Int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(s, r, errMsg, counters...)
}

func (j *Job) finishLocked(s JobState, r *Result, errMsg string, counters ...*atomic.Int64) {
	if j.state.Terminal() {
		return
	}
	for _, c := range counters {
		c.Add(1)
	}
	j.state = s
	j.result = r
	j.err = errMsg
	j.cancel = nil
	j.publishLocked(Event{Type: "state", State: s, Error: errMsg})
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	close(j.done)
}

// traceHook adapts the engine's trace callback into progress events.
func (j *Job) traceHook() func(round int, sent []engine.Message) {
	return func(round int, sent []engine.Message) {
		j.rounds.Store(int64(round))
		j.mu.Lock()
		if len(j.subs) > 0 {
			j.publishLocked(Event{Type: "round", Round: round, Messages: len(sent)})
		}
		j.mu.Unlock()
	}
}

// Manager errors.
var (
	// ErrShuttingDown rejects submissions during graceful shutdown.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrQueueFull rejects submissions when the job queue is saturated.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrFinished reports a cancel request for an already-terminal job.
	ErrFinished = errors.New("service: job already finished")
)

// Manager owns the job table, the result cache, and the worker pool. It is
// safe for concurrent use.
type Manager struct {
	Metrics *Metrics

	cache      *Cache
	store      *store.Store // second cache tier; nil without persistence
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool
}

// NewManager starts a manager with the given worker-pool size (min 1),
// result-cache capacity, and queue capacity (min 1).
func NewManager(workers, cacheCap, queueCap int) *Manager {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		Metrics:    &Metrics{},
		cache:      NewCache(cacheCap),
		queue:      make(chan *Job, queueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// AttachStore adds a persistent content-addressed result store as the
// second cache tier: Submit consults it after an LRU miss (promoting hits
// back into the LRU) and completed results are written through to it, so
// cache hits survive restarts and deduplicate across a fleet sharing the
// same content hashes. Attach before the first Submit; the store is owned
// by the caller (the Manager never closes it).
func (m *Manager) AttachStore(st *store.Store) { m.store = st }

// storeLookup consults the persistent store for a previously computed
// result, tolerating (and counting) unreadable records.
func (m *Manager) storeLookup(hash string) (*Result, bool) {
	if m.store == nil {
		return nil, false
	}
	b, ok := m.store.Get(hash)
	if !ok {
		return nil, false
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		m.Metrics.StoreErrors.Add(1)
		return nil, false
	}
	return &r, true
}

// storeWrite persists a completed result, tolerating (and counting)
// append failures — the job already succeeded; persistence is best-effort.
func (m *Manager) storeWrite(hash string, r *Result) {
	if m.store == nil {
		return
	}
	b, err := json.Marshal(r)
	if err == nil {
		err = m.store.Put(hash, b)
	}
	if err != nil {
		m.Metrics.StoreErrors.Add(1)
	}
}

// MetricsSnapshot extends Metrics.Snapshot with the cache-tier gauges:
// LRU occupancy and evictions, and the persistent store's stats when one
// is attached. This is the payload of GET /v1/metrics.
func (m *Manager) MetricsSnapshot() MetricsSnapshot {
	snap := m.Metrics.Snapshot()
	snap.CacheEntries = m.cache.Len()
	snap.CacheEvictions = m.cache.Evictions()
	if m.store != nil {
		st := m.store.Stats()
		snap.Store = &st
	}
	return snap
}

// Submit validates the spec and either serves it from the result cache
// (the returned job is already Done with CacheHit set) or enqueues it for
// a worker. Invalid specs, a saturated queue, and a shutting-down manager
// are reported as errors.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("invalid job spec: %w", err)
	}
	hash := spec.Hash()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.seq++
	job := &Job{
		ID:    fmt.Sprintf("job-%06d", m.seq),
		Spec:  spec,
		Hash:  hash,
		state: JobQueued,
		done:  make(chan struct{}),
		subs:  make(map[int]chan Event),
	}
	m.Metrics.JobsAccepted.Add(1)

	r, hit := m.cache.Get(hash)
	if !hit {
		// Second tier: the persistent store (restart survival + fleet
		// dedup). Hits are promoted back into the LRU.
		if r, hit = m.storeLookup(hash); hit {
			m.Metrics.StoreHits.Add(1)
			m.cache.Put(hash, r)
		}
	}
	if hit {
		m.Metrics.CacheHits.Add(1)
		job.CacheHit = true
		job.rounds.Store(int64(r.Stats.Rounds))
		job.finish(JobDone, r, "", &m.Metrics.JobsCompleted)
		m.jobs[job.ID] = job
		return job, nil
	}
	m.Metrics.CacheMisses.Add(1)

	select {
	case m.queue <- job:
		m.Metrics.QueueDepth.Add(1)
	default:
		m.seq-- // the job never existed
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	return job, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns a status snapshot of every known job.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel stops a job: a queued job terminates immediately, a running job
// has its context cancelled and terminates as soon as the engine unwinds
// (promptly — the engine checks between rounds). Cancelling a terminal job
// returns ErrFinished.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	job.mu.Lock()
	switch {
	case job.state.Terminal():
		job.mu.Unlock()
		return ErrFinished
	case job.state == JobRunning && job.cancel != nil:
		cancel := job.cancel
		job.mu.Unlock()
		cancel()
		// The worker observes context.Canceled and finishes the job; wait
		// for that so the API's DELETE is synchronous with the state flip.
		<-job.Done()
		return nil
	default:
		// Still queued: terminate in place, holding the lock so the worker
		// cannot concurrently flip the job to running.
		job.finishLocked(JobCancelled, nil, "cancelled before start", &m.Metrics.JobsCancelled)
		job.mu.Unlock()
		return nil
	}
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.workers.Done()
	for job := range m.queue {
		m.Metrics.QueueDepth.Add(-1)
		m.runJob(job)
	}
}

// runJob executes one job to a terminal state.
func (m *Manager) runJob(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state.Terminal() { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.state = JobRunning
	job.cancel = cancel
	job.publishLocked(Event{Type: "state", State: JobRunning})
	job.mu.Unlock()

	m.Metrics.WorkersBusy.Add(1)
	res, err := job.Spec.Run(ctx, job.traceHook())
	m.Metrics.WorkersBusy.Add(-1)
	m.Metrics.RoundsSimulated.Add(job.rounds.Load())

	switch {
	case err == nil:
		m.Metrics.SolverCRTRecons.Add(int64(res.Stats.SolverCRTRecons))
		m.Metrics.SolverEvictions.Add(int64(res.Stats.SolverEvictions))
		m.Metrics.SolverWitnessFalls.Add(int64(res.Stats.SolverWitnessFalls))
		m.Metrics.observePeak(int64(res.Stats.PeakResidentNodes))
		r := NewResult(res)
		m.cache.Put(job.Hash, r)
		m.storeWrite(job.Hash, r)
		job.finish(JobDone, r, "", &m.Metrics.JobsCompleted)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.finish(JobCancelled, nil, "cancelled", &m.Metrics.JobsCancelled)
	case errors.Is(err, engine.ErrWatchdog):
		// The job's own deadline fired: the spec's fault plan wedged the
		// run. This is a structured failure (the spec promised an answer
		// within DeadlineMS and the protocol could not deliver one), not a
		// cancellation — the error text carries the rounds/limit detail.
		job.finish(JobFailed, nil, err.Error(), &m.Metrics.JobsFailed, &m.Metrics.JobsDeadlined)
	default:
		job.finish(JobFailed, nil, err.Error(), &m.Metrics.JobsFailed)
	}
}

// Shutdown drains the manager gracefully: no new submissions are accepted,
// queued jobs still run, and Shutdown returns once every worker is idle.
// If ctx expires first, in-flight simulations are force-cancelled (they
// terminate as JobCancelled) and Shutdown waits for the workers to unwind.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		m.baseCancel() // force-cancel in-flight simulations
		<-idle
		return ctx.Err()
	}
}
