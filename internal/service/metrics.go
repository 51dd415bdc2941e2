package service

import (
	"sync/atomic"

	"anondyn/internal/store"
)

// Metrics aggregates the daemon's operational counters. All fields are
// updated atomically and read without locks; a Snapshot is therefore only
// approximately consistent across counters, which is fine for monitoring.
type Metrics struct {
	// JobsAccepted counts specs admitted by POST /v1/jobs (cache hits
	// included).
	JobsAccepted atomic.Int64
	// JobsCompleted counts jobs that finished with a result (cache hits
	// included).
	JobsCompleted atomic.Int64
	// JobsCancelled counts jobs cancelled before completing.
	JobsCancelled atomic.Int64
	// JobsFailed counts jobs whose simulation returned an error.
	JobsFailed atomic.Int64
	// JobsDeadlined counts the subset of failed jobs ended by the engine
	// watchdog (a wedged run under out-of-model faults hit its deadline).
	JobsDeadlined atomic.Int64
	// CacheHits and CacheMisses count result-cache lookups at submit time.
	// A hit means either tier answered (memory LRU or persistent store);
	// CacheMisses counts specs that had to simulate.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// StoreHits counts the subset of cache hits served by the persistent
	// store after missing the in-memory LRU (i.e. results that survived a
	// restart or were deduplicated across the fleet).
	StoreHits atomic.Int64
	// StoreErrors counts persistent-store operations that failed (an
	// unreadable record, a failed append). The store degrades to a miss —
	// the job simulates — so these are diagnostics, not failures.
	StoreErrors atomic.Int64
	// RoundsSimulated totals the communication rounds actually executed
	// (cache hits add nothing — that is the point of the cache).
	RoundsSimulated atomic.Int64
	// SolverCRTRecons, SolverEvictions and SolverWitnessFalls total the
	// multi-modular counting solver's work across completed jobs: CRT ray
	// reconstructions, unlucky-prime evictions, and fallbacks to the
	// big.Int exactness witness. Witness falls staying at zero is the
	// operational signal that the modular backend is carrying every run.
	SolverCRTRecons    atomic.Int64
	SolverEvictions    atomic.Int64
	SolverWitnessFalls atomic.Int64
	// VHTPeakResidentNodes is the largest resident history tree any single
	// completed job ever held — the memory high-water mark of the fleet.
	VHTPeakResidentNodes atomic.Int64
	// WorkersBusy is the number of worker goroutines currently running a
	// simulation.
	WorkersBusy atomic.Int64
	// QueueDepth is the number of submitted jobs waiting for a worker.
	QueueDepth atomic.Int64
}

// MetricsSnapshot is the JSON form served at GET /v1/metrics.
type MetricsSnapshot struct {
	JobsAccepted       int64 `json:"jobsAccepted"`
	JobsCompleted      int64 `json:"jobsCompleted"`
	JobsCancelled      int64 `json:"jobsCancelled"`
	JobsFailed         int64 `json:"jobsFailed"`
	JobsDeadlined      int64 `json:"jobsDeadlined"`
	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
	StoreHits          int64 `json:"storeHits"`
	StoreErrors        int64 `json:"storeErrors"`
	RoundsSimulated    int64 `json:"roundsSimulated"`
	WorkersBusy        int64 `json:"workersBusy"`
	QueueDepth         int64 `json:"queueDepth"`
	SolverCRTRecons    int64 `json:"solverCRTRecons"`
	SolverEvictions    int64 `json:"solverEvictions"`
	SolverWitnessFalls int64 `json:"solverWitnessFalls"`
	// VHTPeakResidentNodes is the history-tree high-water mark (see
	// Metrics).
	VHTPeakResidentNodes int64 `json:"vhtPeakResidentNodes"`
	// CacheEntries and CacheEvictions describe the in-memory LRU tier
	// (filled by Manager.MetricsSnapshot).
	CacheEntries   int   `json:"cacheEntries"`
	CacheEvictions int64 `json:"cacheEvictions"`
	// Store carries the persistent result-store counters, nil when the
	// daemon runs without one.
	Store *store.Stats `json:"store,omitempty"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		JobsAccepted:       m.JobsAccepted.Load(),
		JobsCompleted:      m.JobsCompleted.Load(),
		JobsCancelled:      m.JobsCancelled.Load(),
		JobsFailed:         m.JobsFailed.Load(),
		JobsDeadlined:      m.JobsDeadlined.Load(),
		CacheHits:          m.CacheHits.Load(),
		CacheMisses:        m.CacheMisses.Load(),
		StoreHits:          m.StoreHits.Load(),
		StoreErrors:        m.StoreErrors.Load(),
		RoundsSimulated:    m.RoundsSimulated.Load(),
		WorkersBusy:        m.WorkersBusy.Load(),
		QueueDepth:         m.QueueDepth.Load(),
		SolverCRTRecons:    m.SolverCRTRecons.Load(),
		SolverEvictions:    m.SolverEvictions.Load(),
		SolverWitnessFalls: m.SolverWitnessFalls.Load(),

		VHTPeakResidentNodes: m.VHTPeakResidentNodes.Load(),
	}
}

// observePeak raises VHTPeakResidentNodes to v if it exceeds the current
// maximum (a lock-free running max).
func (m *Metrics) observePeak(v int64) {
	for {
		cur := m.VHTPeakResidentNodes.Load()
		if v <= cur || m.VHTPeakResidentNodes.CompareAndSwap(cur, v) {
			return
		}
	}
}
