package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"anondyn/internal/service"
)

// TestClusterSoak is the E16 acceptance run: a 3-backend fleet under a
// 1000-job sweep (250 distinct specs) with one backend killed mid-sweep.
// Every job must reach exactly one terminal outcome with the correct
// count, the fleet must visibly reroute around the corpse, and a backend
// restarted over the dead node's store directory must serve its results
// from the persistent store with zero recomputation.
//
// The summary numbers recorded by this test (throughput, p50/p99, cache
// hit rate, failovers) are the source of EXPERIMENTS.md's E16 table.
func TestClusterSoak(t *testing.T) {
	const (
		jobs     = 1000
		distinct = 250
		killAt   = 100 // outcomes observed before the kill
	)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	backends := make([]*service.Server, 3)
	for i := range backends {
		backends[i] = newBackend(t, 4, dirs[i])
	}
	c, err := NewCoordinator(Config{
		Backends:         []string{backends[0].Addr(), backends[1].Addr(), backends[2].Addr()},
		Replicas:         2,
		MaxInFlight:      64,
		ProbeInterval:    100 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitHealthy(context.Background(), 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	victim := backends[0].Addr()
	specs := GenSpecs(jobs, distinct, 42)

	// Expected outcome multiplicity per spec hash: exactly-once per job
	// means the sweep's outcome stream reproduces this multiset.
	want := make(map[string]int, distinct)
	for _, spec := range specs {
		s := spec
		s.Normalize()
		want[s.Hash()]++
	}
	if len(want) != distinct {
		t.Fatalf("load generator produced %d distinct specs, want %d", len(want), distinct)
	}

	var (
		mu          sync.Mutex
		outcomes    int
		got         = make(map[string]int, distinct) // outcomes per spec hash
		computedOn0 []service.JobSpec                // fresh computations the victim served pre-kill
		killOnce    sync.Once
		killCh      = make(chan struct{})
	)
	// Kill the victim from outside the sweep's callback path once enough
	// of the sweep has flowed to prove the fleet was healthy first.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-killCh
		_ = backends[0].Close()
		t.Log("killed backend 0 mid-sweep")
	}()

	summary, err := c.Sweep(context.Background(), specs, func(out Outcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		outcomes++
		if err != nil {
			t.Errorf("outcome %d: %v", outcomes, err)
			return
		}
		got[out.Hash]++
		if out.Status.Result == nil || out.Status.Result.N != out.Status.Spec.N {
			t.Errorf("wrong count for %s: %+v", out.Hash[:12], out.Status)
		}
		if out.Backend == victim && !out.Coalesced && !out.CacheHit {
			computedOn0 = append(computedOn0, out.Status.Spec)
		}
		// The restart check below needs a fresh result in the victim's
		// store, and on a loaded host the victim's first one can arrive
		// after outcome killAt, so the kill waits for it too.
		if outcomes >= killAt && len(computedOn0) > 0 {
			killOnce.Do(func() { close(killCh) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	killOnce.Do(func() { close(killCh) }) // tiny sweeps: still exercise teardown
	<-killed

	// Exactly-once per submitted job: 1000 callbacks, and per spec hash
	// exactly as many outcomes as submissions — none dropped, none doubled.
	if outcomes != jobs {
		t.Fatalf("%d outcomes for %d jobs", outcomes, jobs)
	}
	for hash, n := range want {
		if got[hash] != n {
			t.Fatalf("spec %s: %d outcomes for %d submissions", hash[:12], got[hash], n)
		}
	}
	if summary.Jobs != jobs || summary.Done != jobs || summary.Failed != 0 || summary.Errors != 0 {
		t.Fatalf("summary %+v, want all %d done", summary, jobs)
	}
	// Dedup really engaged: at most one fresh computation per distinct
	// spec per surviving cache, so the vast majority of jobs were served
	// by coalescing or a cache tier.
	m := c.MetricsSnapshot()
	if fresh := jobs - summary.CacheHits - int(m.JobsCoalesced); fresh > 2*distinct {
		t.Fatalf("%d fresh computations for %d distinct specs", fresh, distinct)
	}
	// The fleet visibly rerouted around the corpse: failed-over attempts
	// or breaker-gated skips (the prober usually opens the circuit within
	// ~300ms, so most post-kill traffic is skipped, not failed over).
	if m.Failovers == 0 && m.BreakerSkips == 0 {
		t.Fatalf("backend kill left no trace in the metrics: %+v", m)
	}
	t.Logf("soak summary: %+v", summary)
	t.Logf("coordinator metrics: %+v", m)

	// Restart verification: a fresh backend over the victim's store dir
	// serves the victim's pre-kill computations from the persistent store
	// — cache hit, zero rounds simulated.
	if len(computedOn0) == 0 {
		t.Fatalf("victim computed nothing before the kill; lower killAt")
	}
	reborn := newBackend(t, 2, dirs[0])
	base := "http://" + reborn.Addr()
	body, _ := json.Marshal(computedOn0[0])
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.CacheHit || st.Result == nil || st.Result.N != computedOn0[0].N {
		t.Fatalf("restarted backend lost the persisted result: %+v", st)
	}
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.StoreHits != 1 || metrics.RoundsSimulated != 0 {
		t.Fatalf("restart hit recomputed: storeHits=%d roundsSimulated=%d, want 1 and 0",
			metrics.StoreHits, metrics.RoundsSimulated)
	}
	t.Logf("restart verification: storeHits=%d, recomputed rounds=%d", metrics.StoreHits, metrics.RoundsSimulated)
}
