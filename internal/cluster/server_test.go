package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"anondyn/internal/service"
)

// newClusterServer boots a coordinator + HTTP front end over the given
// backends and registers cleanup.
func newClusterServer(t *testing.T, cfg Config) (*Server, *Coordinator) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Coordinator: c})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, c
}

// TestClusterServerSweepStream pins the coordinator's HTTP surface: a
// sweep streams one NDJSON "job" line per spec plus a final "summary",
// and healthz/metrics report a working fleet.
func TestClusterServerSweepStream(t *testing.T) {
	b1 := newBackend(t, 2, "")
	b2 := newBackend(t, 2, "")
	srv, _ := newClusterServer(t, Config{
		Backends:      []string{b1.Addr(), b2.Addr()},
		ProbeInterval: -1,
	})
	base := "http://" + srv.Addr()

	specs := GenSpecs(40, 10, 2)
	body, _ := json.Marshal(sweepRequest{Specs: specs})
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	jobs, summaries := 0, 0
	var summary SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "job":
			jobs++
			if ev.Err != "" {
				t.Fatalf("job error: %s", ev.Err)
			}
			if ev.Outcome == nil || ev.Outcome.Status.Result == nil ||
				ev.Outcome.Status.Result.N != ev.Outcome.Status.Spec.N {
				t.Fatalf("job outcome wrong: %+v", ev.Outcome)
			}
		case "summary":
			summaries++
			summary = *ev.Summary
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if jobs != 40 || summaries != 1 {
		t.Fatalf("stream had %d job lines and %d summaries, want 40 and 1", jobs, summaries)
	}
	if summary.Jobs != 40 || summary.Done != 40 || summary.Errors != 0 {
		t.Fatalf("summary %+v", summary)
	}

	// Healthz: both circuits closed, so the coordinator reports ok.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz coordinatorHealth
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || len(hz.Backends) != 2 {
		t.Fatalf("healthz %+v", hz)
	}

	// Metrics: every job accounted for.
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.JobsDone+m.JobsCoalesced != 40 {
		t.Fatalf("metrics don't cover the sweep: %+v", m)
	}
}

// TestClusterServerSingleJob pins POST /v1/jobs: one spec in, one terminal
// Outcome out; invalid specs map to 400.
func TestClusterServerSingleJob(t *testing.T) {
	b := newBackend(t, 1, "")
	srv, _ := newClusterServer(t, Config{Backends: []string{b.Addr()}, ProbeInterval: -1})
	base := "http://" + srv.Addr()

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"n":5,"topology":"path"}`))
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Status.Result == nil || out.Status.Result.N != 5 {
		t.Fatalf("status %d outcome %+v", resp.StatusCode, out)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"n":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec got status %d, want 400", resp.StatusCode)
	}
}

// TestClusterServerRejectsUnknownFields pins that the coordinator decodes
// requests the way a backend does: an unknown or retired spec field in
// /v1/jobs or /v1/sweep is a 400 naming the field, and nothing is routed.
func TestClusterServerRejectsUnknownFields(t *testing.T) {
	b := newBackend(t, 1, "")
	srv, c := newClusterServer(t, Config{Backends: []string{b.Addr()}, ProbeInterval: -1})
	base := "http://" + srv.Addr()
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/jobs", `{"n":4,"lederless":true}`, "lederless"},
		{"/v1/jobs", `{"n":4,"arithmetic":"big"}`, "arithmetic"},
		{"/v1/sweep", `{"specs":[{"n":4},{"n":5,"private_vht":true}]}`, "private_vht"},
		{"/v1/jobs", `{"n":4,"scheduler":"parallel"}`, "scheduler"},
		{"/v1/sweep", `{"specs":[{"n":4,"scheduler":"sequential"}]}`, "scheduler"},
		{"/v1/jobs", `{"n":4,"eager":true}`, "eager"},
		{"/v1/sweep", `{"specs":[{"n":4},{"n":5,"eager":true}]}`, "eager"},
		{"/v1/jobs", `{"n":4,"compact":true}`, "compact"},
		{"/v1/sweep", `{"specs":[{"n":4},{"n":5,"compact":true}]}`, "compact"},
	} {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `\"`+tc.field+`\"`) {
			t.Errorf("%s %s: status %d body %s, want 400 naming the field", tc.path, tc.body, resp.StatusCode, msg)
		}
	}
	if m := c.MetricsSnapshot(); m.JobsRouted != 0 {
		t.Fatalf("rejected requests were routed: %+v", m)
	}
}

// TestClusterServerSweepClientDisconnect is the leak regression for the
// sweep stream: a client that vanishes mid-sweep must cancel the whole
// sweep promptly, so Shutdown is not held hostage by an abandoned stream.
func TestClusterServerSweepClientDisconnect(t *testing.T) {
	b := newBackend(t, 1, "")
	c, err := NewCoordinator(Config{Backends: []string{b.Addr()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Coordinator: c})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := "http://" + srv.Addr()

	// One job that runs until cancelled (an out-of-model plan wedges it;
	// its deadline is far beyond the test): no NDJSON line is emitted until
	// it is terminal, so the only way the handler can unwind quickly is
	// request-context cancellation.
	wedged := service.JobSpec{N: 5, Topology: "complete", Halt: true, Faults: "drop:1:0:1",
		DeadlineMS: 600_000, MaxRounds: 1 << 30}
	body, _ := json.Marshal(sweepRequest{Specs: []service.JobSpec{wedged}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The handler's first write is the job's terminal line, so Do does not
	// return while the job runs; issue it in the background.
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Let the sweep reach the backend: wait until its job is running.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var jobs []service.JobStatus
		if resp, err := http.Get("http://" + b.Addr() + "/v1/jobs"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&jobs)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(jobs) == 1 && jobs[0].State == service.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep job never ran on the backend: %+v", jobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned sweep request: err %v, want context.Canceled", err)
	}

	// With the client gone the handler must exit, so a bounded Shutdown
	// succeeds long before the abandoned job would have finished.
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	start := time.Now()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown blocked by abandoned sweep: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %s, handler did not unwind promptly", elapsed)
	}
	// The backend is torn down hard by newBackend's cleanup (Close), which
	// also cancels the orphaned job.
}

// Start serves in a background goroutine; the error surfaces in Shutdown.
func (s *Server) Start() {
	go func() { s.errCh <- s.Serve() }()
}
