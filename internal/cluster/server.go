package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"anondyn/internal/service"
)

// ServerConfig configures the coordinator's HTTP front end.
type ServerConfig struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Coordinator is the routing core; required.
	Coordinator *Coordinator
}

// Server is the coordinator's HTTP surface. It mirrors the backend API
// shape where that makes sense (healthz, metrics) and adds the fleet
// entry points: single-job routing and streaming sweeps.
//
//	POST /v1/jobs    route one spec, respond with its terminal Outcome
//	POST /v1/sweep   route many specs, stream NDJSON progress + summary
//	GET  /v1/healthz coordinator + per-backend breaker health
//	GET  /v1/metrics coordinator counters
type Server struct {
	coord *Coordinator
	ln    net.Listener
	http  *http.Server
	errCh chan error
}

// NewServer binds the listen socket and wires the routes; call Start or
// Serve to begin serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: ServerConfig.Coordinator is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		coord: cfg.Coordinator,
		ln:    ln,
		errCh: make(chan error, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.http = &http.Server{Handler: mux}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving HTTP until Shutdown or Close.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting connections, waits for in-flight handlers
// within ctx, and stops the coordinator's health prober.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.coord.Close()
	select {
	case serveErr := <-s.errCh:
		if err == nil {
			err = serveErr
		}
	default:
	}
	return err
}

// writeJSON / writeError mirror the backend server's envelope so clients
// can share decoding code across tiers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleJob routes one spec through the coordinator and responds with its
// terminal Outcome. Spec rejections map to 400; a spec that failed on
// every replica maps to 502.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	if err := service.DecodeStrict(r.Body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	out, err := s.coord.Run(r.Context(), spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, out)
	case errors.Is(err, ErrRejected):
		writeError(w, http.StatusBadRequest, "%v", err)
	case r.Context().Err() != nil:
		// Client is gone; nothing useful to write.
	default:
		writeError(w, http.StatusBadGateway, "%v", err)
	}
}

// sweepRequest is the body of POST /v1/sweep.
type sweepRequest struct {
	// Specs are the jobs to route; duplicates coalesce.
	Specs []service.JobSpec `json:"specs"`
}

// sweepEvent is one NDJSON line of the sweep stream: a "job" line per
// terminal outcome (Err set instead of Outcome when every replica
// failed), then a single "summary" line.
type sweepEvent struct {
	Type    string        `json:"type"`
	Outcome *Outcome      `json:"outcome,omitempty"`
	Err     string        `json:"error,omitempty"`
	Summary *SweepSummary `json:"summary,omitempty"`
}

// handleSweep routes every spec in the request and streams progress as
// NDJSON. The stream terminates promptly when the client disconnects:
// the request context cancels the whole sweep, and a failed write or
// flush (the proxy-buffering backstop) does the same.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := service.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode sweep request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep needs at least one spec")
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	writeLine := func(v any) {
		if err := enc.Encode(v); err != nil {
			cancel()
			return
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			cancel()
		}
	}

	summary, err := s.coord.Sweep(ctx, req.Specs, func(out Outcome, err error) {
		ev := sweepEvent{Type: "job"}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.Outcome = &out
		}
		writeLine(ev)
	})
	ev := sweepEvent{Type: "summary", Summary: &summary}
	if err != nil {
		ev.Err = err.Error()
	}
	writeLine(ev)
}

// coordinatorHealth is the JSON body of the coordinator's GET /v1/healthz.
type coordinatorHealth struct {
	// Status is "ok" when at least one backend circuit is closed,
	// "degraded" otherwise — load balancers should keep routing to a
	// degraded coordinator (it still retries half-open probes) but page.
	Status string `json:"status"`
	// Backends lists every backend's breaker state.
	Backends []BackendHealth `json:"backends"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := s.coord.Health()
	status := "degraded"
	for _, b := range backends {
		if !b.BreakerOpen {
			status = "ok"
			break
		}
	}
	writeJSON(w, http.StatusOK, coordinatorHealth{Status: status, Backends: backends})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.MetricsSnapshot())
}
