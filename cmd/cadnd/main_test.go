package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"anondyn/internal/cluster"
	"anondyn/internal/service"
)

// TestServeLifecycle boots the daemon on an ephemeral port, runs one job
// through the HTTP API, and shuts it down via the signal path.
func TestServeLifecycle(t *testing.T) {
	srv, err := service.NewServer(service.ServerConfig{Workers: 2, CacheSize: 16, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveOn(srv, 10*time.Second) }()
	base := "http://" + srv.Addr()

	// Wait for the listener to serve; serveOn registers its signal handler
	// before serving, so a healthy endpoint implies the SIGTERM path is
	// armed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One job end to end through the daemon.
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"n":5,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var final service.JobStatus
	for deadline := time.Now().Add(30 * time.Second); !final.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 30s: %+v", st.ID, final)
		}
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&final)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if final.State != service.JobDone || final.Result == nil || final.Result.N != 5 {
		t.Fatalf("job outcome: %+v", final)
	}

	// SIGTERM must drain and exit cleanly.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after SIGTERM")
	}
}

// TestServeBadAddr verifies that an unusable listen address surfaces as an
// error instead of a hang.
func TestServeBadAddr(t *testing.T) {
	if err := serve("256.256.256.256:99999", 1, 1, 1, "", "", time.Second); err == nil {
		t.Fatal("expected listen error")
	}
}

// TestServeBadProtocol verifies an unknown -protocol default is rejected
// at boot instead of failing every submitted job.
func TestServeBadProtocol(t *testing.T) {
	if err := serve("127.0.0.1:0", 1, 1, 1, "", "quantum", time.Second); err == nil {
		t.Fatal("expected protocol error")
	}
}

// TestServeCoordinatorBadConfig verifies coordinator-mode argument errors
// surface instead of booting a broken fleet.
func TestServeCoordinatorBadConfig(t *testing.T) {
	if err := serveCoordinator("127.0.0.1:0", "", 2, 64, 64, time.Second, time.Second); err == nil {
		t.Fatal("expected error for empty -backends")
	}
	if err := serveCoordinator("127.0.0.1:0", "a:1, a:1", 2, 64, 64, time.Second, time.Second); err == nil {
		t.Fatal("expected error for duplicate backends")
	}
}

// TestCoordinatorServeLifecycle boots a backend plus a coordinator front
// end, routes one job through the cluster tier, and shuts both down via
// the signal path.
func TestCoordinatorServeLifecycle(t *testing.T) {
	backend, err := service.NewServer(service.ServerConfig{Workers: 2, CacheSize: 16, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	go backend.Serve()
	defer func() { _ = backend.Close() }()

	coord, err := cluster.NewCoordinator(cluster.Config{
		Backends:      []string{backend.Addr()},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := cluster.NewServer(cluster.ServerConfig{Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveOn(front, 10*time.Second) }()
	base := "http://" + front.Addr()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"n":5,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var out cluster.Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Status.Result == nil || out.Status.Result.N != 5 {
		t.Fatalf("cluster job outcome: %+v", out)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not exit on SIGTERM")
	}
}
