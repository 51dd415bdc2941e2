package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anondyn/internal/service"
)

// newBackend boots one in-process cadnd backend and registers cleanup.
func newBackend(t *testing.T, workers int, storeDir string) *service.Server {
	t.Helper()
	srv, err := service.NewServer(service.ServerConfig{
		Workers:   workers,
		CacheSize: 64,
		QueueSize: 256,
		StoreDir:  storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// deadAddr reserves an address nothing listens on: connections to it are
// refused immediately, which is the fastest way to simulate a dead node.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// specsWithPrimary scans seeds for k distinct specs whose ring primary is
// the given backend, so failover paths can be exercised deterministically.
func specsWithPrimary(t *testing.T, c *Coordinator, primary string, k int) []service.JobSpec {
	t.Helper()
	out := make([]service.JobSpec, 0, k)
	for seed := int64(0); seed < 65536 && len(out) < k; seed++ {
		spec := service.JobSpec{N: 5, Topology: "cycle", Seed: seed}
		spec.Normalize()
		if c.Owners(spec.Hash())[0] == primary {
			out = append(out, spec)
		}
	}
	if len(out) < k {
		t.Fatalf("found only %d/%d specs with primary %s", len(out), k, primary)
	}
	return out
}

// TestCoordinatorFailover pins the retry path: a spec whose primary is
// dead lands on the next replica, counted as exactly one failover, and
// still produces the correct count.
func TestCoordinatorFailover(t *testing.T) {
	dead := deadAddr(t)
	live := newBackend(t, 2, "")
	c, err := NewCoordinator(Config{
		Backends:      []string{dead, live.Addr()},
		Replicas:      2,
		ProbeInterval: -1, // traffic-driven breakers only: keeps counters exact
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := specsWithPrimary(t, c, dead, 1)[0]
	out, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Backend != live.Addr() || out.Attempts != 2 {
		t.Fatalf("outcome backend=%s attempts=%d, want live backend after 2 attempts", out.Backend, out.Attempts)
	}
	if out.Status.Result == nil || out.Status.Result.N != 5 {
		t.Fatalf("failover lost the result: %+v", out.Status)
	}
	m := c.MetricsSnapshot()
	if m.Failovers != 1 || m.JobsDone != 1 || m.Attempts != 2 {
		t.Fatalf("metrics after failover: %+v", m)
	}
}

// TestCoordinatorBreakerShortCircuits pins the circuit breaker: once the
// dead primary has burned through its failure threshold, later specs skip
// it without paying the connection timeout.
func TestCoordinatorBreakerShortCircuits(t *testing.T) {
	dead := deadAddr(t)
	live := newBackend(t, 2, "")
	c, err := NewCoordinator(Config{
		Backends:         []string{dead, live.Addr()},
		Replicas:         2,
		ProbeInterval:    -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // no half-open probes during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	specs := specsWithPrimary(t, c, dead, 3)

	// Two distinct dead-primary specs open the circuit...
	for _, spec := range specs[:2] {
		if _, err := c.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if skips := c.metrics.BreakerSkips.Load(); skips != 0 {
		t.Fatalf("breaker skipped %d attempts before opening", skips)
	}

	// ...so a third one goes straight to the replica in a single attempt.
	before := c.metrics.Attempts.Load()
	out, err := c.Run(context.Background(), specs[2])
	if err != nil {
		t.Fatal(err)
	}
	if got := c.metrics.Attempts.Load() - before; got != 1 {
		t.Fatalf("open breaker still attempted the dead primary: %d attempts", got)
	}
	if out.Attempts != 1 || out.Backend != live.Addr() {
		t.Fatalf("outcome %+v, want single-attempt success on live backend", out)
	}
	if skips := c.metrics.BreakerSkips.Load(); skips == 0 {
		t.Fatal("no breaker skips recorded")
	}

	health := c.Health()
	var deadHealth *BackendHealth
	for i := range health {
		if health[i].Name == dead {
			deadHealth = &health[i]
		}
	}
	if deadHealth == nil || !deadHealth.BreakerOpen || deadHealth.BreakerOpens != 1 {
		t.Fatalf("health misreports the dead backend: %+v", health)
	}
}

// TestCoordinatorBackpressureKeepsBreakerClosed pins that a full queue is
// load, not failure: a backend that answers 429 on more jobs than the
// breaker threshold sends each to the replica and keeps its circuit closed.
func TestCoordinatorBackpressureKeepsBreakerClosed(t *testing.T) {
	var refused atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			refused.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = io.WriteString(w, `{"error":"service: job queue full"}`)
			return
		}
		_, _ = io.WriteString(w, `{"status":"ok"}`)
	}))
	defer busy.Close()
	busyAddr := busy.Listener.Addr().String()
	live := newBackend(t, 2, "")
	const threshold = 3
	c, err := NewCoordinator(Config{
		Backends:         []string{busyAddr, live.Addr()},
		Replicas:         2,
		ProbeInterval:    -1,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Minute, // an opened circuit would stay open
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, spec := range specsWithPrimary(t, c, busyAddr, 2*threshold) {
		out, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if out.Backend != live.Addr() || out.Attempts != 2 {
			t.Fatalf("outcome backend=%s attempts=%d, want the replica after 2 attempts", out.Backend, out.Attempts)
		}
	}
	if got := refused.Load(); got != 2*threshold {
		t.Fatalf("busy backend saw %d submissions, want %d: its breaker skipped it", got, 2*threshold)
	}
	for _, h := range c.Health() {
		if h.Name == busyAddr && (h.BreakerOpen || h.ConsecutiveFailures != 0 || h.BreakerOpens != 0) {
			t.Fatalf("backpressure charged the breaker: %+v", h)
		}
	}
	if m := c.MetricsSnapshot(); m.BreakerSkips != 0 || m.Failovers != 2*threshold {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestCoordinatorWaitsOutBackpressure pins that the coordinator honours
// Retry-After: a lone replica that answers one 429 asking for 1 s, then
// accepts, gets its second attempt only after that second, and a context
// that expires during the wait ends the job with its error and no second
// attempt.
func TestCoordinatorWaitsOutBackpressure(t *testing.T) {
	live := newBackend(t, 2, "")
	target, err := url.Parse("http://" + live.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var submits, refuse atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
			if refuse.Add(-1) >= 0 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				_, _ = io.WriteString(w, `{"error":"service: job queue full"}`)
				return
			}
		}
		proxy.ServeHTTP(w, r)
	}))
	defer replica.Close()
	c, err := NewCoordinator(Config{Backends: []string{replica.Listener.Addr().String()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	refuse.Store(1)
	start := time.Now()
	out, err := c.Run(context.Background(), service.JobSpec{N: 5, Topology: "cycle", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); out.Attempts != 2 || waited < time.Second {
		t.Fatalf("done after %d attempts in %v, want 2 attempts after at least 1s", out.Attempts, waited)
	}
	if out.Status.State != service.JobDone || out.Status.Result == nil || out.Status.Result.N != 5 {
		t.Fatalf("outcome %+v, want a count of 5", out.Status)
	}

	refuse.Store(1)
	submits.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.Run(ctx, service.JobSpec{N: 5, Topology: "cycle", Seed: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want the context's deadline error", err)
	}
	if got := submits.Load(); got != 1 {
		t.Fatalf("replica saw %d submissions, want 1: the wait did not end with the context", got)
	}
}

// TestCoordinatorBackpressureWaitFreesSlot pins that a job waiting out a
// Retry-After holds no in-flight slot: with one slot, job A meets a 429
// asking for 1 s, and job B, submitted during A's wait, finishes well
// before that second is over; A still completes on its second attempt.
func TestCoordinatorBackpressureWaitFreesSlot(t *testing.T) {
	live := newBackend(t, 2, "")
	target, err := url.Parse("http://" + live.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var refuse atomic.Int64
	refuse.Store(1)
	refused := make(chan struct{})
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && refuse.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = io.WriteString(w, `{"error":"service: job queue full"}`)
			close(refused)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer replica.Close()
	c, err := NewCoordinator(Config{
		Backends:      []string{replica.Listener.Addr().String()},
		MaxInFlight:   1,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		out Outcome
		err error
	}
	a := make(chan result, 1)
	go func() {
		out, err := c.Run(context.Background(), service.JobSpec{N: 5, Topology: "cycle", Seed: 1})
		a <- result{out, err}
	}()
	<-refused
	start := time.Now()
	outB, err := c.Run(context.Background(), service.JobSpec{N: 5, Topology: "cycle", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("job B took %v behind job A's backpressure wait, want under 1s", took)
	}
	if outB.Status.State != service.JobDone || outB.Attempts != 1 {
		t.Fatalf("job B: %d attempts, state %s", outB.Attempts, outB.Status.State)
	}
	ra := <-a
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	if ra.out.Attempts != 2 || ra.out.Status.State != service.JobDone {
		t.Fatalf("job A: %d attempts, state %s; want done after 2", ra.out.Attempts, ra.out.Status.State)
	}
}

// TestCoordinatorCoalescesDuplicates pins exactly-once within a burst:
// eight concurrent submissions of one spec produce exactly one execution;
// every other outcome is either coalesced onto it or a cache hit.
func TestCoordinatorCoalescesDuplicates(t *testing.T) {
	live := newBackend(t, 2, "")
	c, err := NewCoordinator(Config{Backends: []string{live.Addr()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := service.JobSpec{N: 6, Topology: "star", Seed: 7}
	const burst = 8
	outs := make([]Outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := c.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	computed := 0
	for i, out := range outs {
		if out.Status.Result == nil || out.Status.Result.N != 6 {
			t.Fatalf("run %d: wrong result %+v", i, out.Status)
		}
		if !out.Coalesced && !out.CacheHit {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d submissions computed fresh, want exactly 1", computed)
	}
}

// TestCoordinatorRejectsInvalidSpec pins the permanent-failure path: a
// spec the fleet can never run fails fast with ErrRejected, no retries.
func TestCoordinatorRejectsInvalidSpec(t *testing.T) {
	live := newBackend(t, 1, "")
	c, err := NewCoordinator(Config{Backends: []string{live.Addr()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Run(context.Background(), service.JobSpec{N: -3})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if m := c.MetricsSnapshot(); m.Attempts != 0 {
		t.Fatalf("invalid spec reached a backend: %+v", m)
	}
}

// TestSweepSummary pins the aggregate view: a duplicate-heavy sweep
// completes every job with correct counts and a consistent summary.
func TestSweepSummary(t *testing.T) {
	b1 := newBackend(t, 2, "")
	b2 := newBackend(t, 2, "")
	c, err := NewCoordinator(Config{
		Backends:      []string{b1.Addr(), b2.Addr()},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	specs := GenSpecs(60, 12, 1)
	var mu sync.Mutex
	got := 0
	summary, err := c.Sweep(context.Background(), specs, func(out Outcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		got++
		if err != nil {
			t.Errorf("outcome error: %v", err)
			return
		}
		if out.Status.Result == nil || out.Status.Result.N != out.Status.Spec.N {
			t.Errorf("wrong count: %+v", out.Status)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 60 {
		t.Fatalf("%d outcomes emitted, want 60", got)
	}
	if summary.Jobs != 60 || summary.Done != 60 || summary.Failed != 0 || summary.Errors != 0 {
		t.Fatalf("summary %+v", summary)
	}
	if summary.Unique < 12 || summary.Unique+summary.CacheHits+int(c.metrics.JobsCoalesced.Load()) < 60 {
		t.Fatalf("dedup accounting inconsistent: %+v coalesced=%d", summary, c.metrics.JobsCoalesced.Load())
	}
	if summary.P99MS < summary.P50MS || summary.MaxMS < summary.P99MS {
		t.Fatalf("latency quantiles out of order: %+v", summary)
	}
}

// Owners exposes the failover chain the coordinator would use for a spec
// hash (primary first) — for tests and observability.
func (c *Coordinator) Owners(hash string) []string {
	return c.ring.Owners(hash, c.cfg.Replicas)
}
