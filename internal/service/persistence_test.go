package service

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"anondyn/internal/store"
)

// TestManagerStoreRestartCacheHit is the restart-survival contract: a
// result computed before a daemon restart is served from the persistent
// store afterwards — zero recomputation — and promoted back into the LRU.
func TestManagerStoreRestartCacheHit(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(42)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(1, 8, 8)
	m.AttachStore(st)
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := WaitTerminal(job, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != JobDone || first.Result.N != 5 {
		t.Fatalf("first run: %+v", first)
	}
	if err := m.Shutdown(contextWithTimeout(t, 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager (empty LRU) over the same store directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewManager(1, 8, 8)
	m2.AttachStore(st2)
	defer func() { _ = m2.Shutdown(contextWithTimeout(t, 30*time.Second)) }()

	again, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("restart lost the persisted result: no cache hit")
	}
	stAgain := again.Status()
	if stAgain.State != JobDone || stAgain.Result == nil || stAgain.Result.N != 5 {
		t.Fatalf("persisted result corrupted: %+v", stAgain)
	}
	if got := m2.Metrics.StoreHits.Load(); got != 1 {
		t.Fatalf("storeHits=%d, want 1", got)
	}
	if got := m2.Metrics.RoundsSimulated.Load(); got != 0 {
		t.Fatalf("store hit re-simulated %d rounds, want 0", got)
	}

	// The hit was promoted into the LRU: a third submission hits memory,
	// not the store.
	third, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("promoted result missing from LRU")
	}
	if got := m2.Metrics.StoreHits.Load(); got != 1 {
		t.Fatalf("LRU-promoted hit consulted the store again: storeHits=%d", got)
	}
}

// TestStoreRecordWithRetiredStats: a store outlives the code that wrote
// it, so a record whose stats carry keys RunStats no longer has — here
// the compaction counters, in the record an earlier build wrote for
// quickSpec(42), verbatim — must be served as a store hit, not counted
// as a store error and re-simulated.
func TestStoreRecordWithRetiredStats(t *testing.T) {
	const record = `{"n":5,"multiset":{"0":4,"L:0":1},"stats":{"Rounds":220,"MaxMessageBits":32,` +
		`"TotalMessages":1100,"TotalBits":24472,"Resets":2,"FinalDiamEstimate":4,"Levels":2,` +
		`"WallClock":676872,"SolverTime":44145,"SolverCalls":2,"SolverPrimes":2,"SolverCRTRecons":1,` +
		`"SolverEvictions":0,"SolverWitnessFalls":0,"SharedApplies":31,"SharedHits":116,"SharedForks":0,` +
		`"CompactedLevels":0,"CompactedNodes":0,"ResidentNodes":10,"PeakResidentNodes":10}}`
	spec := quickSpec(42)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(spec.Hash(), []byte(record)); err != nil {
		t.Fatal(err)
	}
	m := NewManager(1, 8, 8)
	m.AttachStore(st)
	defer func() { _ = m.Shutdown(contextWithTimeout(t, 30*time.Second)) }()

	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !job.CacheHit {
		t.Fatal("record with retired stats keys was not served from the store")
	}
	status := job.Status()
	if status.State != JobDone || status.Result == nil || status.Result.N != 5 || status.Result.Stats.Rounds != 220 {
		t.Fatalf("stored result decoded wrong: %+v", status)
	}
	if hits, errs := m.Metrics.StoreHits.Load(), m.Metrics.StoreErrors.Load(); hits != 1 || errs != 0 {
		t.Fatalf("storeHits=%d storeErrors=%d, want 1 and 0", hits, errs)
	}
	if got := m.Metrics.RoundsSimulated.Load(); got != 0 {
		t.Fatalf("store hit re-simulated %d rounds, want 0", got)
	}
}

// TestServerHealthzAndMetrics pins the /v1/healthz probe contract and the
// metrics extensions: cache occupancy, evictions, and persistent-store
// stats all surface in /v1/metrics.
func TestServerHealthzAndMetrics(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Workers:   2,
		CacheSize: 1, // every second distinct job evicts the first
		QueueSize: 16,
		StoreDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() { _ = srv.Shutdown(contextWithTimeout(t, 30*time.Second)) }()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzStatus
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: status %d, body %+v", resp.StatusCode, hz)
	}

	for seed := int64(1); seed <= 3; seed++ {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"n":5,"seed":`+string(rune('0'+seed))+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		job, ok := srv.Manager().Get(st.ID)
		if !ok {
			t.Fatalf("job %s vanished", st.ID)
		}
		if _, err := WaitTerminal(job, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.CacheEntries != 1 {
		t.Fatalf("cacheEntries=%d, want 1 (capacity 1)", m.CacheEntries)
	}
	if m.CacheEvictions < 2 {
		t.Fatalf("cacheEvictions=%d, want >=2 (three distinct jobs through a 1-entry LRU)", m.CacheEvictions)
	}
	if m.Store == nil || m.Store.Records != 3 || m.Store.Puts != 3 {
		t.Fatalf("store stats missing or wrong: %+v", m.Store)
	}
}

// TestEventStreamClientDisconnect is the goroutine-leak regression for the
// NDJSON event stream: clients that vanish mid-stream must release their
// handler goroutines and job subscriptions promptly, while the job is
// still running.
func TestEventStreamClientDisconnect(t *testing.T) {
	srv, err := NewServer(ServerConfig{Workers: 1, CacheSize: 4, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() { _ = srv.Shutdown(contextWithTimeout(t, 30*time.Second)) }()
	base := "http://" + srv.Addr()

	// The job runs until the test cancels it, so it outlives every stream
	// below however fast the host is.
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(longSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var submitted JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	job, ok := srv.Manager().Get(submitted.ID)
	if !ok {
		t.Fatalf("job %s vanished", submitted.ID)
	}
	// Sample the goroutine baseline only once a round has been delivered:
	// the engine's process coroutines count as goroutines, and right after
	// JobRunning they may not all exist yet.
	waitRounds(t, job, 10*time.Second)

	subscribers := func() int {
		job.mu.Lock()
		defer job.mu.Unlock()
		return len(job.subs)
	}
	baseline := runtime.NumGoroutine()

	// Open several streams, read one line from each, then drop them all
	// without consuming the (still-growing) remainder.
	const streams = 8
	cancels := make([]context.CancelFunc, 0, streams)
	client := &http.Client{}
	for i := 0; i < streams; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+job.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("stream %d produced nothing: %v", i, err)
		}
		defer resp.Body.Close()
	}
	if n := subscribers(); n != streams {
		t.Fatalf("%d subscribers registered, want %d", n, streams)
	}

	for _, cancel := range cancels {
		cancel() // tears down the connections client-side
	}
	client.CloseIdleConnections()

	// Every handler goroutine and subscription must unwind while the job
	// keeps running.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if subscribers() == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := subscribers(); n != 0 {
		t.Fatalf("%d subscriptions leaked after client disconnect", n)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("handler goroutines leaked: baseline %d, now %d\n%s", baseline, g, buf[:n])
	}
	if st := job.Status(); st.State != JobRunning {
		t.Fatalf("job state %s, want still running", st.State)
	}
	if err := srv.Manager().Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
}
