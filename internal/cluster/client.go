package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"anondyn/internal/service"
)

// ErrRejected marks a backend response that is a verdict on the spec
// itself (HTTP 400): deterministic, so retrying it on a replica cannot
// help. Every other client error is transport- or capacity-shaped and is
// failover material.
var ErrRejected = errors.New("cluster: spec rejected by backend")

// ErrBackpressure marks a backend that refused a job because its queue is
// full (HTTP 429): it is busy, not failing, so the coordinator fails over
// without charging its circuit breaker.
var ErrBackpressure = errors.New("cluster: backend queue full")

// ErrJobLost marks a job that vanished between submission and its
// terminal poll — the signature of a backend restart. The coordinator
// retries it on the next replica.
var ErrJobLost = errors.New("cluster: job lost by backend")

// Client is a thin HTTP client for one cadnd backend.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the backend at addr (a host:port or a
// full http:// base URL). The http.Client is shared with the coordinator
// so connection pools are per-fleet, not per-backend.
func NewClient(addr string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	base := addr
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	return &Client{base: base, http: hc}
}

// Addr returns the backend's base URL.
func (c *Client) Addr() string { return c.base }

// Healthz probes GET /v1/healthz, returning nil iff the backend answered
// 200 within the context's deadline.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: healthz status %d", resp.StatusCode)
	}
	return nil
}

// Metrics fetches the backend's /v1/metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return m, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("cluster: metrics status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// Submit POSTs the spec to /v1/jobs. A 400 is returned as ErrRejected
// (permanent); 5xx and transport errors are retryable.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer drain(resp)
	switch {
	case resp.StatusCode == http.StatusOK:
		return st, json.NewDecoder(resp.Body).Decode(&st)
	case resp.StatusCode == http.StatusBadRequest:
		return st, fmt.Errorf("%w: %s", ErrRejected, apiErrorText(resp.Body))
	case resp.StatusCode == http.StatusTooManyRequests:
		return st, fmt.Errorf("%w: %s", ErrBackpressure, apiErrorText(resp.Body))
	default:
		return st, fmt.Errorf("cluster: submit status %d: %s", resp.StatusCode, apiErrorText(resp.Body))
	}
}

// Status fetches one job's status. An unknown job ID maps to ErrJobLost.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return st, json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusNotFound:
		return st, fmt.Errorf("%w: %s", ErrJobLost, id)
	default:
		return st, fmt.Errorf("cluster: status status %d", resp.StatusCode)
	}
}

// RunJob submits the spec and polls until the job is terminal, with a
// gentle poll backoff (poll → 10×poll). Cache hits return without a
// single poll. The context bounds the whole attempt.
func (c *Client) RunJob(ctx context.Context, spec service.JobSpec, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	st, err := c.Submit(ctx, spec)
	if err != nil || st.State.Terminal() {
		return st, err
	}
	interval := poll
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-timer.C:
		}
		st, err = c.Status(ctx, st.ID)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if interval < 10*poll {
			interval += poll
		}
		timer.Reset(interval)
	}
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// apiErrorText extracts the service's JSON error envelope, falling back
// to the raw body.
func apiErrorText(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(b))
}
