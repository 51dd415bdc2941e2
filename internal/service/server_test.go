package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServerEndToEnd exercises the full daemon lifecycle required by the
// acceptance criteria: submit two identical jobs and one distinct job and
// observe the cache hit, stream NDJSON events from a running job, cancel a
// worst-case job promptly without leaking goroutines, and shut the server
// down gracefully.
func TestServerEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, err := NewServer(ServerConfig{Workers: 2, CacheSize: 16, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 60 * time.Second}

	post := func(spec string) JobStatus {
		t.Helper()
		resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var apiErr apiError
			_ = json.NewDecoder(resp.Body).Decode(&apiErr)
			t.Fatalf("POST %s: status %d: %s", spec, resp.StatusCode, apiErr.Error)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	getStatus := func(id string) JobStatus {
		t.Helper()
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	metrics := func() MetricsSnapshot {
		t.Helper()
		resp, err := client.Get(base + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m MetricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	waitDone := func(id string) JobStatus {
		t.Helper()
		job, ok := srv.Manager().Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st, err := WaitTerminal(job, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// --- Dedup: two identical jobs, one distinct. ---
	const specA = `{"n":6,"seed":1}`
	first := post(specA)
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	st := waitDone(first.ID)
	if st.State != JobDone || st.Result == nil || st.Result.N != 6 {
		t.Fatalf("first job: %+v", st)
	}
	m1 := metrics()
	if m1.CacheMisses < 1 || m1.RoundsSimulated <= 0 {
		t.Fatalf("metrics after first job: %+v", m1)
	}

	second := post(specA) // identical spec → served from cache, no simulation
	if !second.CacheHit || second.State != JobDone || second.Result == nil || second.Result.N != 6 {
		t.Fatalf("identical resubmission not served from cache: %+v", second)
	}
	m2 := metrics()
	if m2.CacheHits != m1.CacheHits+1 {
		t.Fatalf("cacheHits %d → %d, want +1", m1.CacheHits, m2.CacheHits)
	}
	if m2.RoundsSimulated != m1.RoundsSimulated {
		t.Fatalf("cache hit re-simulated: rounds %d → %d", m1.RoundsSimulated, m2.RoundsSimulated)
	}

	distinct := post(`{"n":6,"seed":2}`) // different seed → different run
	if distinct.CacheHit {
		t.Fatal("distinct spec must miss the cache")
	}
	if st := waitDone(distinct.ID); st.State != JobDone || st.Result.N != 6 {
		t.Fatalf("distinct job: %+v", st)
	}
	if m3 := metrics(); m3.RoundsSimulated <= m2.RoundsSimulated {
		t.Fatalf("distinct job simulated no rounds: %d → %d", m2.RoundsSimulated, m3.RoundsSimulated)
	}

	// --- Stream NDJSON events for a job that runs until cancelled. ---
	long := post(longSpecJSON)
	streamCtx, cancelStream := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelStream()
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, base+"/v1/jobs/"+long.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	sawRound := false
	for scanner.Scan() && !sawRound {
		var ev Event
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		if ev.Type == "round" && ev.Round > 0 && ev.Messages > 0 {
			sawRound = true
		}
	}
	if !sawRound {
		t.Fatal("event stream produced no round-progress events")
	}

	// --- Cancel the long job; it must stop promptly. ---
	delReq, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+long.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var delSt JobStatus
	if err := json.NewDecoder(delResp.Body).Decode(&delSt); err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK || delSt.State != JobCancelled {
		t.Fatalf("DELETE: status %d, job state %s", delResp.StatusCode, delSt.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
	// The event stream of a cancelled job terminates with its final status.
	var lastLine []byte
	for scanner.Scan() {
		lastLine = append(lastLine[:0], scanner.Bytes()...)
	}
	var final struct {
		Type   string    `json:"type"`
		Status JobStatus `json:"status"`
	}
	if err := json.Unmarshal(lastLine, &final); err != nil || final.Type != "status" || final.Status.State != JobCancelled {
		t.Fatalf("stream final line %q (err %v), want terminal status line", lastLine, err)
	}
	resp.Body.Close()

	if m := metrics(); m.JobsCancelled != 1 {
		t.Fatalf("jobsCancelled=%d, want 1", m.JobsCancelled)
	}

	// --- API error surface. ---
	if resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"n":-4}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
		}
	}
	if st := getStatus(long.ID); st.State != JobCancelled {
		t.Fatalf("GET after cancel: %s", st.State)
	}
	if resp, err := client.Get(base + "/v1/jobs/nonexistent"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := client.Get(base + "/v1/jobs"); err != nil {
		t.Fatal(err)
	} else {
		var all []JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(all) != 4 {
			t.Fatalf("job list has %d entries, want 4", len(all))
		}
	}

	// --- Graceful shutdown, then no more connections. ---
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}

	// --- No goroutine leaks. ---
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}

// TestServerQueueFullIs429 pins the backpressure answer: a full queue is
// HTTP 429 with Retry-After, not a 5xx that a coordinator would charge to
// the backend's health.
func TestServerQueueFullIs429(t *testing.T) {
	srv, err := NewServer(ServerConfig{Workers: 1, CacheSize: 4, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := "http://" + srv.Addr()
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(msg)
	}
	resp, msg := post(longSpecJSON)
	var long JobStatus
	if err := json.Unmarshal([]byte(msg), &long); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("long job: status %d body %s", resp.StatusCode, msg)
	}
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+long.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	// The long job holds the one worker, or still waits in the one queue
	// slot; quick jobs fill the slot and then overflow it.
	for seed := 1; seed <= 3; seed++ {
		resp, msg := post(fmt.Sprintf(`{"n":5,"seed":%d}`, seed))
		if resp.StatusCode == http.StatusTooManyRequests {
			if got := resp.Header.Get("Retry-After"); got != "1" || !strings.Contains(msg, "queue full") {
				t.Fatalf("429 with Retry-After %q body %s", got, msg)
			}
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", seed, resp.StatusCode, msg)
		}
	}
	t.Fatal("a full queue never answered 429")
}

// TestServerRejectsUnknownFields guards the API contract: a typo in a spec
// field, or a field the spec no longer has, is a 400 naming the field, not
// a silently defaulted knob.
func TestServerRejectsUnknownFields(t *testing.T) {
	srv, err := NewServer(ServerConfig{Workers: 1, CacheSize: 4, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	for field, body := range map[string]string{
		"topologyy":   `{"n":4,"topologyy":"path"}`,
		"arithmetic":  `{"n":4,"arithmetic":"big"}`,
		"private_vht": `{"n":4,"private_vht":true}`,
		"scheduler":   `{"n":4,"scheduler":"parallel"}`,
		"eager":       `{"n":4,"eager":true}`,
	} {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/jobs", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `\"`+field+`\"`) {
			t.Errorf("%s: status %d body %s, want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
}
