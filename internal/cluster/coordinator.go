package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/service"
)

// Config parameterizes NewCoordinator. Zero values select sane defaults.
type Config struct {
	// Backends are the cadnd backend addresses (host:port or http:// base
	// URLs). At least one is required.
	Backends []string
	// Replicas is the length of each spec's failover chain on the hash
	// ring: the primary plus Replicas-1 fallbacks (default 2, capped at
	// the backend count).
	Replicas int
	// VirtualNodes is the number of ring points per backend (default 64).
	VirtualNodes int
	// MaxInFlight bounds the number of concurrently executing jobs across
	// the whole coordinator (default 64).
	MaxInFlight int
	// ProbeInterval is the health-check period (default 2s; negative
	// disables the prober — breakers are then fed by job traffic only).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects traffic before
	// admitting a half-open probe (default 3s).
	BreakerCooldown time.Duration
	// PollInterval is the job status poll period (default 5ms, backing
	// off to 10×).
	PollInterval time.Duration
	// AttemptTimeout bounds one submit-and-wait attempt on one backend
	// (default 2m). Specs with their own watchdog deadline get at least
	// three deadlines, preserving the PR 5 semantics: the backend's
	// watchdog fires first and reports a structured failure; the attempt
	// timeout only catches dead backends.
	AttemptTimeout time.Duration
	// HTTPClient is shared by all backend clients (default: a dedicated
	// client with sensible connection pooling).
	HTTPClient *http.Client
}

func (cfg *Config) withDefaults() {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 3 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Minute
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
			},
		}
	}
}

// backend pairs one cadnd client with its circuit breaker.
type backend struct {
	name    string
	client  *Client
	breaker *breaker
}

// Metrics aggregates the coordinator's counters (all atomic).
type Metrics struct {
	// JobsRouted counts unique spec executions started (coalesced
	// duplicates excluded).
	JobsRouted atomic.Int64
	// JobsDone / JobsFailed count terminal outcomes of unique executions.
	// A JobsFailed outcome is a deterministic verdict (bad spec or
	// structured watchdog failure), not a transport problem.
	JobsDone   atomic.Int64
	JobsFailed atomic.Int64
	// JobsCoalesced counts submissions served by piggybacking on an
	// identical in-flight spec.
	JobsCoalesced atomic.Int64
	// Attempts counts backend submit-and-wait attempts; Failovers the
	// attempts beyond each job's first (i.e. retries on the next replica).
	Attempts  atomic.Int64
	Failovers atomic.Int64
	// BreakerSkips counts owners bypassed because their circuit was open.
	BreakerSkips atomic.Int64
	// ProbeFailures counts failed health probes.
	ProbeFailures atomic.Int64
}

// MetricsSnapshot is the JSON form of the coordinator's /v1/metrics.
type MetricsSnapshot struct {
	JobsRouted    int64 `json:"jobsRouted"`
	JobsDone      int64 `json:"jobsDone"`
	JobsFailed    int64 `json:"jobsFailed"`
	JobsCoalesced int64 `json:"jobsCoalesced"`
	Attempts      int64 `json:"attempts"`
	Failovers     int64 `json:"failovers"`
	BreakerSkips  int64 `json:"breakerSkips"`
	ProbeFailures int64 `json:"probeFailures"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		JobsRouted:    m.JobsRouted.Load(),
		JobsDone:      m.JobsDone.Load(),
		JobsFailed:    m.JobsFailed.Load(),
		JobsCoalesced: m.JobsCoalesced.Load(),
		Attempts:      m.Attempts.Load(),
		Failovers:     m.Failovers.Load(),
		BreakerSkips:  m.BreakerSkips.Load(),
		ProbeFailures: m.ProbeFailures.Load(),
	}
}

// Outcome is the terminal record of one routed spec: which backend
// answered, after how many attempts, and the job's final status.
type Outcome struct {
	// Hash is the spec's canonical content hash (the routing key).
	Hash string `json:"hash"`
	// Backend is the backend that produced the terminal status.
	Backend string `json:"backend"`
	// Attempts counts submit-and-wait attempts (1 = no failover).
	Attempts int `json:"attempts"`
	// Coalesced marks an outcome shared with an identical in-flight spec
	// rather than executed separately.
	Coalesced bool `json:"coalesced,omitempty"`
	// CacheHit mirrors the backend's cache verdict (memory or store).
	CacheHit bool `json:"cacheHit,omitempty"`
	// LatencyMS is the wall-clock time from routing to terminal status.
	LatencyMS float64 `json:"ms"`
	// Status is the job's terminal status, result included.
	Status service.JobStatus `json:"status"`
}

// flight is one in-progress unique execution; duplicates wait on done.
type flight struct {
	done chan struct{}
	out  Outcome
	err  error
}

// Coordinator shards specs across a fleet of cadnd backends. Create with
// NewCoordinator, release with Close.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	sem      chan struct{} // MaxInFlight execution slots
	metrics  Metrics

	flightMu sync.Mutex
	flights  map[string]*flight

	probeStop context.CancelFunc
	probeDone chan struct{}
}

// NewCoordinator validates the config, builds the hash ring, and starts
// the health prober (unless ProbeInterval < 0).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:      cfg,
		ring:     ring,
		backends: make(map[string]*backend, len(cfg.Backends)),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		flights:  make(map[string]*flight),
	}
	for _, name := range cfg.Backends {
		c.backends[name] = &backend{
			name:    name,
			client:  NewClient(name, cfg.HTTPClient),
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	if cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.probeStop = cancel
		c.probeDone = make(chan struct{})
		go c.probeLoop(ctx)
	}
	return c, nil
}

// Close stops the health prober. In-flight Run/Sweep calls are unaffected
// (cancel their contexts to stop them).
func (c *Coordinator) Close() {
	if c.probeStop != nil {
		c.probeStop()
		<-c.probeDone
	}
}

// MetricsSnapshot exposes the coordinator's counters.
func (c *Coordinator) MetricsSnapshot() MetricsSnapshot { return c.metrics.Snapshot() }

// probeLoop health-checks every backend each ProbeInterval, feeding the
// circuit breakers: a probe failure counts like a job failure, a success
// closes the circuit so traffic returns without waiting for a half-open
// job to risk itself.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, b := range c.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				probeCtx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
				defer cancel()
				if err := b.client.Healthz(probeCtx); err != nil {
					c.metrics.ProbeFailures.Add(1)
					b.breaker.failure(time.Now(), err)
				} else {
					b.breaker.success()
				}
			}(b)
		}
		wg.Wait()
	}
}

// BackendHealth is one backend's view in the coordinator's /v1/healthz.
type BackendHealth struct {
	// Name is the backend address as configured.
	Name string `json:"name"`
	// BreakerOpen reports whether the circuit currently rejects traffic.
	BreakerOpen bool `json:"breakerOpen"`
	// ConsecutiveFailures and BreakerOpens describe the failure history.
	ConsecutiveFailures int   `json:"consecutiveFailures"`
	BreakerOpens        int64 `json:"breakerOpens"`
	// LastError is the most recent failure, empty while healthy.
	LastError string `json:"lastError,omitempty"`
}

// Health reports every backend's breaker state, in ring construction
// order.
func (c *Coordinator) Health() []BackendHealth {
	now := time.Now()
	out := make([]BackendHealth, 0, len(c.backends))
	for _, name := range c.ring.Backends() {
		b := c.backends[name]
		open, consecutive, opens, lastErr := b.breaker.snapshot(now)
		out = append(out, BackendHealth{
			Name:                name,
			BreakerOpen:         open,
			ConsecutiveFailures: consecutive,
			BreakerOpens:        opens,
			LastError:           lastErr,
		})
	}
	return out
}

// Owners exposes the failover chain the coordinator would use for a spec
// hash (primary first) — for tests and observability.
func (c *Coordinator) Owners(hash string) []string {
	return c.ring.Owners(hash, c.cfg.Replicas)
}

// Run routes one spec: coalesce onto an identical in-flight spec if one
// exists, otherwise execute it on the spec's primary backend with
// failover along the replica chain. The returned Outcome is terminal;
// err is non-nil only when no terminal outcome could be produced (every
// replica failed, the spec was rejected, or ctx expired).
func (c *Coordinator) Run(ctx context.Context, spec service.JobSpec) (Outcome, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	hash := spec.Hash()

	c.flightMu.Lock()
	if f, ok := c.flights[hash]; ok {
		c.flightMu.Unlock()
		c.metrics.JobsCoalesced.Add(1)
		select {
		case <-f.done:
			out := f.out
			out.Coalesced = true
			return out, f.err
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[hash] = f
	c.flightMu.Unlock()

	f.out, f.err = c.runUnique(ctx, spec, hash)
	c.flightMu.Lock()
	delete(c.flights, hash)
	c.flightMu.Unlock()
	close(f.done)
	return f.out, f.err
}

// runUnique executes one deduplicated spec under the in-flight bound.
func (c *Coordinator) runUnique(ctx context.Context, spec service.JobSpec, hash string) (Outcome, error) {
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
	c.metrics.JobsRouted.Add(1)
	start := time.Now()

	owners := c.ring.Owners(hash, c.cfg.Replicas)
	attemptTimeout := c.cfg.AttemptTimeout
	if d := time.Duration(spec.DeadlineMS) * time.Millisecond; d > 0 && attemptTimeout < 3*d {
		attemptTimeout = 3 * d
	}

	attempts := 0
	var lastErr error
	// Two passes over the replica chain: the first respects open
	// breakers; the second (reached only if every owner was skipped or
	// failed) ignores them — a last resort so a fleet that just came back
	// is usable before the next probe closes the circuits.
	for pass := 0; pass < 2; pass++ {
		for _, name := range owners {
			b := c.backends[name]
			if pass == 0 && !b.breaker.allow(time.Now()) {
				c.metrics.BreakerSkips.Add(1)
				continue
			}
			if ctx.Err() != nil {
				return Outcome{}, ctx.Err()
			}
			attempts++
			c.metrics.Attempts.Add(1)
			if attempts > 1 {
				c.metrics.Failovers.Add(1)
			}
			attemptCtx, cancel := context.WithTimeout(ctx, attemptTimeout)
			st, err := b.client.RunJob(attemptCtx, spec, c.cfg.PollInterval)
			cancel()
			switch {
			case err == nil && st.State == service.JobDone:
				b.breaker.success()
				c.metrics.JobsDone.Add(1)
				return Outcome{
					Hash: hash, Backend: name, Attempts: attempts,
					CacheHit: st.CacheHit, LatencyMS: msSince(start), Status: st,
				}, nil
			case err == nil && st.State == service.JobFailed:
				// A structured verdict on the spec (watchdog/derived
				// failure) — deterministic, so a replica would fail the
				// same way. Terminal, not failover material.
				b.breaker.success()
				c.metrics.JobsFailed.Add(1)
				return Outcome{
					Hash: hash, Backend: name, Attempts: attempts,
					LatencyMS: msSince(start), Status: st,
				}, nil
			case errors.Is(err, ErrRejected):
				// Spec-level rejection: deterministic, permanent.
				c.metrics.JobsFailed.Add(1)
				return Outcome{}, err
			case ctx.Err() != nil:
				return Outcome{}, ctx.Err()
			case errors.Is(err, ErrBackpressure):
				// A full queue is load, not ill health: fail over to the
				// next replica without charging this backend's breaker.
				lastErr = err
			default:
				// Transport failure, lost job, 5xx, attempt timeout, or a
				// cancellation by a dying backend: charge the breaker and
				// fail over to the next replica.
				if err == nil {
					err = fmt.Errorf("cluster: job ended %s on %s", st.State, name)
				}
				lastErr = err
				b.breaker.failure(time.Now(), err)
			}
		}
	}
	c.metrics.JobsFailed.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no backend available")
	}
	return Outcome{}, fmt.Errorf("cluster: spec %s failed on all %d replica(s): %w", hash[:12], len(owners), lastErr)
}

// msSince renders a duration since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// SweepSummary aggregates one Sweep call: counts, failover totals, and
// the latency distribution of the per-job outcomes.
type SweepSummary struct {
	// Jobs is the number of submitted specs; Unique the number actually
	// executed (the rest coalesced onto identical in-flight specs).
	Jobs   int `json:"jobs"`
	Unique int `json:"unique"`
	// Done and Failed partition the terminal outcomes; Errors counts
	// specs with no terminal outcome (all replicas failed / ctx expired).
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Errors int `json:"errors"`
	// CacheHits counts outcomes served from a backend cache tier.
	CacheHits int `json:"cacheHits"`
	// Failovers is the total number of retry attempts across the sweep.
	Failovers int64 `json:"failovers"`
	// ElapsedMS and ThroughputPerSec describe the whole sweep; P50MS,
	// P99MS and MaxMS the per-job latency distribution.
	ElapsedMS        float64 `json:"elapsedMS"`
	ThroughputPerSec float64 `json:"throughputPerSec"`
	P50MS            float64 `json:"p50MS"`
	P99MS            float64 `json:"p99MS"`
	MaxMS            float64 `json:"maxMS"`
}

// Sweep routes every spec concurrently (bounded by MaxInFlight), calling
// onOutcome — serialized, never concurrently — as each spec reaches a
// terminal outcome, and returns the aggregate summary. A spec whose every
// replica fails is reported through onOutcome with an empty Backend and
// counted in Errors; Sweep itself returns an error only for an invalid
// argument or a cancelled context, so one lost spec cannot hide the rest
// of the sweep.
func (c *Coordinator) Sweep(ctx context.Context, specs []service.JobSpec, onOutcome func(Outcome, error)) (SweepSummary, error) {
	start := time.Now()
	failoversBefore := c.metrics.Failovers.Load()

	var (
		emitMu    sync.Mutex
		wg        sync.WaitGroup
		summary   SweepSummary
		latencies = make([]float64, 0, len(specs))
	)
	summary.Jobs = len(specs)
	for i := range specs {
		wg.Add(1)
		go func(spec service.JobSpec) {
			defer wg.Done()
			out, err := c.Run(ctx, spec)
			emitMu.Lock()
			defer emitMu.Unlock()
			switch {
			case err != nil:
				summary.Errors++
			case out.Status.State == service.JobFailed:
				summary.Failed++
			default:
				summary.Done++
			}
			if err == nil {
				if !out.Coalesced {
					summary.Unique++
				}
				if out.CacheHit {
					summary.CacheHits++
				}
				latencies = append(latencies, out.LatencyMS)
			}
			if onOutcome != nil {
				onOutcome(out, err)
			}
		}(specs[i])
	}
	wg.Wait()

	summary.Failovers = c.metrics.Failovers.Load() - failoversBefore
	summary.ElapsedMS = msSince(start)
	if summary.ElapsedMS > 0 {
		summary.ThroughputPerSec = float64(summary.Jobs) / (summary.ElapsedMS / 1000)
	}
	sort.Float64s(latencies)
	summary.P50MS = quantile(latencies, 0.50)
	summary.P99MS = quantile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		summary.MaxMS = latencies[n-1]
	}
	return summary, ctx.Err()
}

// quantile reads the q-quantile (0 ≤ q ≤ 1) from sorted values by the
// nearest-rank method; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
