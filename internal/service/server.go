package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"anondyn/internal/store"
)

// Server is the HTTP surface of the daemon.
//
// Routes:
//
//	POST   /v1/jobs             submit a JobSpec; 200 with the job status
//	                            (a cache hit returns an already-done job)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status (result included when done)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream lifecycle + per-round progress as NDJSON
//	GET    /v1/metrics          operational counters (cache tiers included)
//	GET    /v1/healthz          liveness probe (JSON; coordinator probe target)
//	GET    /healthz             liveness probe (plain text, kept for scripts)
type Server struct {
	mgr   *Manager
	mux   *http.ServeMux
	http  *http.Server
	ln    net.Listener
	store *store.Store // owned when opened from StoreDir; nil otherwise
	proto string       // DefaultProtocol, already normalized
}

// ServerConfig parameterizes NewServer. Zero values select sane defaults.
type ServerConfig struct {
	// Addr is the listen address (default "127.0.0.1:0", an ephemeral
	// localhost port — read Server.Addr() for the bound address).
	Addr string
	// Workers is the worker-pool size (default 4).
	Workers int
	// CacheSize is the result-cache capacity (default 256; negative
	// disables caching).
	CacheSize int
	// QueueSize is the job-queue capacity (default 1024).
	QueueSize int
	// StoreDir, when non-empty, opens (or creates) a persistent
	// content-addressed result store in that directory and attaches it
	// under the LRU, so cache hits survive restarts. The server owns the
	// store and closes it on Shutdown.
	StoreDir string
	// DefaultProtocol, when non-empty, is applied to submitted specs that
	// do not name a protocol themselves, before validation and hashing —
	// a fleet can be pinned to the linear backend without every client
	// spelling it. "congested" (the spec default) and "linear" are valid.
	DefaultProtocol string
}

// NewServer binds the listen address and prepares the daemon, but does not
// serve yet; call Serve (blocking) or Start (background).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1024
	}
	switch cfg.DefaultProtocol {
	case "", "congested", "linear":
	default:
		return nil, fmt.Errorf("service: unknown default protocol %q (have congested, linear)", cfg.DefaultProtocol)
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("service: open result store: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		mgr:   NewManager(cfg.Workers, cfg.CacheSize, cfg.QueueSize),
		mux:   http.NewServeMux(),
		store: st,
		proto: cfg.DefaultProtocol,
	}
	if st != nil {
		s.mgr.AttachStore(st)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: s.mux}
	s.ln = ln
	return s, nil
}

// Addr returns the bound listen address, e.g. "127.0.0.1:43627".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Manager exposes the job manager (for embedding and tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Serve blocks serving HTTP until Shutdown is called.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Start serves in a background goroutine and returns immediately.
func (s *Server) Start() {
	go func() { _ = s.Serve() }()
}

// Shutdown stops the HTTP listener and then drains the job manager: queued
// jobs still run to completion unless ctx expires first, in which case
// in-flight simulations are force-cancelled.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.http.Shutdown(ctx)
	mgrErr := s.mgr.Shutdown(ctx)
	if s.store != nil {
		// After the manager drained, no worker can write the store anymore.
		_ = s.store.Close()
	}
	if httpErr != nil {
		return httpErr
	}
	return mgrErr
}

// Close hard-stops the server: the listener and every active connection
// close immediately and in-flight simulations are force-cancelled (they
// terminate as JobCancelled). This is the abrupt counterpart of Shutdown —
// the fleet soak test uses it to kill a backend mid-sweep. The persistent
// store needs no flushing (appends are already on disk), so a Closed
// backend restarted over the same StoreDir serves its completed results
// from the store.
func (s *Server) Close() error {
	httpErr := s.http.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: force-cancel in-flight jobs immediately
	_ = s.mgr.Shutdown(ctx)
	if s.store != nil {
		_ = s.store.Close()
	}
	return httpErr
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := DecodeStrict(r.Body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	if spec.Protocol == "" {
		spec.Protocol = s.proto
	}
	job, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, job.Status())
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not ill health: the client should retry shortly
		// (a coordinator fails over without charging this backend).
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.mgr.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		job, _ := s.mgr.Get(r.PathValue("id"))
		writeJSON(w, http.StatusOK, job.Status())
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleEvents streams the job's event feed as NDJSON: one JSON object per
// line, flushed per event, ending with a terminal "state" line (followed by
// the job status on a "status" line) once the job finishes.
//
// The stream must terminate promptly when the client goes away, through
// either of two signals: the request context (cancelled by net/http when
// the connection drops — the primary signal) or a write/flush error (the
// backstop when cancellation is delayed, e.g. behind a buffering proxy
// that keeps the upstream connection open). Ignoring write errors here
// would pin a handler goroutine — and its job subscription — for the
// remaining lifetime of an arbitrarily long job per disconnected client;
// the regression test is TestEventStreamClientDisconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	writeLine := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		// ErrNotSupported (no flusher in the chain) is fine: the write
		// above still succeeded and will reach the client buffered.
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		return true
	}
	events, unsubscribe := job.Subscribe()
	defer unsubscribe()

	// Lead with the current state so a late subscriber still gets a
	// well-formed stream.
	st := job.Status()
	if !writeLine(Event{Type: "state", State: st.State, Error: st.Error}) {
		return
	}

	for {
		select {
		case ev, open := <-events:
			if !open {
				// Terminal: append the final status as the last line.
				_ = writeLine(struct {
					Type   string    `json:"type"`
					Status JobStatus `json:"status"`
				}{Type: "status", Status: job.Status()})
				return
			}
			if !writeLine(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.MetricsSnapshot())
}

// healthzStatus is the JSON body of GET /v1/healthz: enough for a
// coordinator's failover probe to judge liveness and load at a glance.
type healthzStatus struct {
	Status      string `json:"status"`
	WorkersBusy int64  `json:"workersBusy"`
	QueueDepth  int64  `json:"queueDepth"`
}

// handleHealthz is the documented liveness probe for coordinators and
// load balancers: cheap (two atomic loads), allocation-light, and always
// 200 while the listener is up — a daemon that cannot answer it is down.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzStatus{
		Status:      "ok",
		WorkersBusy: s.mgr.Metrics.WorkersBusy.Load(),
		QueueDepth:  s.mgr.Metrics.QueueDepth.Load(),
	})
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
