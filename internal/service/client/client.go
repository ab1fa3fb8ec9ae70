// Package client is the Go client for the specd HTTP API. It is the one
// piece of code that builds and sends specd API requests: cmd/specload,
// the cluster router and membership agent, and the end-to-end tests all
// go through it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// ErrBusy is returned by Submit when the server applies backpressure
// (HTTP 429); the job was not enqueued and may be retried later.
var ErrBusy = errors.New("client: server busy (queue full)")

// BusyError is the concrete 429 error carrying the server's Retry-After
// hint. errors.Is(err, ErrBusy) matches it.
type BusyError struct {
	// RetryAfter is the server's suggested wait (zero if absent). The
	// millisecond-resolution X-Specd-Retry-After-Ms header is preferred
	// over the whole-second Retry-After when both are present.
	RetryAfter time.Duration
	// Class is the server's rejection class ("queue", "tenant", "quota",
	// "shed", or "deadline"), empty when the server did not say.
	Class string
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		if e.Class != "" {
			return fmt.Sprintf("client: server busy (%s, retry after %v)", e.Class, e.RetryAfter)
		}
		return fmt.Sprintf("client: server busy (retry after %v)", e.RetryAfter)
	}
	return ErrBusy.Error()
}

// Is makes errors.Is(err, ErrBusy) true for BusyError values.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// HTTPError is a non-2xx answer other than 429 (which is BusyError),
// carrying the status code so callers can tell a retryable 503 from an
// authoritative 400/404/409. A client over several targets fails over
// on 503/504; specload classifies errors with it.
type HTTPError struct {
	StatusCode int
	Status     string // e.g. "503 Service Unavailable"
	Message    string // server-provided error body, if any
}

func (e *HTTPError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("client: %s", e.Status)
}

// Client talks to one specd front door or, built by New over several
// base URLs, to the first of them that can answer: transport errors,
// timeouts and 503/504 answers (draining, journal-degraded, or relaying
// a dead owner) rotate to the next target, authoritative answers (400,
// 404, 409, 429) and the caller's own cancel never do, and a rotation
// sticks, so pollers ride through a dead or restarting front door.
//
// Every request whose context has a deadline carries it in
// service.DeadlineHeader, so the server stops working on a call its
// caller has given up on.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080": the
	// first target.
	BaseURL string
	// HTTPClient defaults to a client with a 10s request timeout.
	HTTPClient *http.Client
	// Observe, when set, receives one callback per completed HTTP
	// request: the target's base URL, the method, the request path, the
	// response status (0 on a transport error), the transport error
	// itself (nil on an HTTP answer), and the elapsed wall time.
	// specload's per-target latency histograms and error-class breakdown
	// hang off this hook.
	Observe func(target, method, path string, status int, err error, elapsed time.Duration)

	targets []string     // every base URL in preference order, BaseURL first
	cur     atomic.Int32 // index in targets of the target that answered last
}

// New returns a client for baseURL that fails over to the fallbacks, in
// order.
func New(baseURL string, fallbacks ...string) *Client {
	c := &Client{HTTPClient: &http.Client{Timeout: 10 * time.Second}}
	for _, u := range append([]string{baseURL}, fallbacks...) {
		c.targets = append(c.targets, strings.TrimRight(u, "/"))
	}
	c.BaseURL = c.targets[0]
	return c
}

// LastTarget returns the base URL of the target that answered the most
// recent request (BaseURL before the first).
func (c *Client) LastTarget() string { return c.target(int(c.cur.Load())) }

func (c *Client) target(i int) string {
	if len(c.targets) == 0 {
		return c.BaseURL
	}
	return c.targets[i]
}

// rotates is the failover rule: a target that failed at the transport
// level (refused, reset, timed out) or answered 503/504 may be standing
// in front of work another target can still serve. The caller's own
// cancel is not the target's fault.
func rotates(status int, err error) bool {
	if err != nil {
		return !errors.Is(err, context.Canceled)
	}
	return status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout
}

// send issues one request, trying the targets from the current one on
// and rotating while rotates says so and ctx is live. It returns the
// answer with its body read in full and closed; the error is
// transport-level only. jobID, when set, pre-assigns the id of a
// submitted job.
func (c *Client) send(ctx context.Context, method, path, jobID string, payload []byte) (*http.Response, []byte, error) {
	n := max(len(c.targets), 1)
	start := int(c.cur.Load())
	var (
		resp *http.Response
		body []byte
		err  error
	)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		resp, body, err = c.roundTrip(ctx, c.target(idx), method, path, jobID, payload)
		status := 0
		if err == nil {
			status = resp.StatusCode
		}
		if i+1 < n && ctx.Err() == nil && rotates(status, err) {
			continue
		}
		if !rotates(status, err) {
			c.cur.Store(int32(idx))
		}
		return resp, body, err
	}
	return resp, body, err
}

// roundTrip sends one request to one target and reads the answer,
// reporting it to the Observe hook.
func (c *Client) roundTrip(ctx context.Context, target, method, path, jobID string, payload []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, target+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if jobID != "" {
		req.Header.Set(service.JobIDHeader, jobID)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(service.DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	start := time.Now()
	resp, err := c.HTTPClient.Do(req)
	if c.Observe != nil {
		status := 0
		if err == nil {
			status = resp.StatusCode
		}
		c.Observe(target, method, req.URL.Path, status, err, time.Since(start))
	}
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// answerErr maps a non-2xx answer onto the client's error shapes: a
// *BusyError for 429, an *HTTPError for anything else from 400 up.
func answerErr(resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		be := &BusyError{Class: resp.Header.Get(service.RejectClassHeader)}
		if ms, err := strconv.ParseInt(resp.Header.Get(service.RetryAfterMsHeader), 10, 64); err == nil && ms > 0 {
			be.RetryAfter = time.Duration(ms) * time.Millisecond
		} else if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			be.RetryAfter = time.Duration(secs) * time.Second
		}
		return be
	}
	if resp.StatusCode >= 400 {
		he := &HTTPError{StatusCode: resp.StatusCode, Status: resp.Status}
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			he.Message = eb.Error
		}
		return he
	}
	return nil
}

// fetch sends a request and returns the answer's body alongside the
// error its status maps to (nil below 400).
func (c *Client) fetch(ctx context.Context, method, path, jobID string, payload []byte) ([]byte, error) {
	resp, body, err := c.send(ctx, method, path, jobID, payload)
	if err != nil {
		return nil, err
	}
	return body, answerErr(resp, body)
}

// Call sends in (when non-nil) as the JSON body of a method request on
// path and decodes a successful answer into out (when non-nil). A
// non-2xx answer is a *BusyError (429) or an *HTTPError; any other error
// is a transport failure or an undecodable answer.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, "", in, out)
}

func (c *Client) call(ctx context.Context, method, path, jobID string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	body, err := c.fetch(ctx, method, path, jobID, payload)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return nil
}

// Raw sends a bodiless request and returns the answer's status and body
// as the server sent them, whatever the status: the router relays
// member answers with it. The error is transport-level only.
func (c *Client) Raw(ctx context.Context, method, path string) (int, []byte, error) {
	resp, body, err := c.send(ctx, method, path, "", nil)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// Submit posts a job spec. On 429 it returns a *BusyError (matched by
// errors.Is(err, ErrBusy)) carrying the server's Retry-After hint.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	return c.SubmitPlaced(ctx, "", spec)
}

// SubmitPlaced posts a job spec under a caller-assigned id
// (service.JobIDHeader); the cluster router places jobs this way. A
// duplicate id answers with the existing job's status.
func (c *Client) SubmitPlaced(ctx context.Context, id string, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.call(ctx, http.MethodPost, "/v1/jobs", id, spec, &st)
	return st, err
}

// Backoff is a jittered exponential retry schedule: the wait before
// retry n (0-based) is drawn uniformly from [d/2, d), with d doubling
// from Base while below Max, then floored at the server's hint and
// capped at Max. Zero values take the documented defaults.
type Backoff struct {
	MaxRetries int           // additional attempts after the first (default 0: no retry)
	Base       time.Duration // first wait, doubled per retry (default 50ms)
	Max        time.Duration // hard cap on any single wait (default 2s)
	Seed       uint64        // jitter seed, for deterministic tests
}

// Retry calls op until it succeeds, fails with an error retryable
// refuses, has been retried MaxRetries times, or ctx ends. Between
// attempts it waits the schedule, at least the duration retryable
// returns (a server's Retry-After). It returns the number of retries
// begun and op's last error, or ctx's error when ctx ends during a wait.
func (p Backoff) Retry(ctx context.Context, op func() error, retryable func(error) (time.Duration, bool)) (int, error) {
	d := p.Base
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	maxWait := p.Max
	if maxWait <= 0 {
		maxWait = 2 * time.Second
	}
	r := rng.New(p.Seed)
	for n := 0; ; n++ {
		err := op()
		if err == nil || n >= p.MaxRetries || ctx.Err() != nil {
			return n, err
		}
		floor, ok := retryable(err)
		if !ok {
			return n, err
		}
		wait := min(max(d/2+time.Duration(r.Float64()*float64(d/2)), floor), maxWait)
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return n + 1, ctx.Err()
		case <-t.C:
		}
		if d < maxWait {
			d *= 2
		}
	}
}

// RetryStats reports what SubmitRetry did.
type RetryStats struct {
	Attempts int // total submit attempts, including the first
	Retries  int // attempts that followed a 429
}

// SubmitRetry submits on p's schedule, retrying 429s only and waiting at
// least the server's Retry-After hint. Any non-busy result (success or
// other error) returns immediately.
func (c *Client) SubmitRetry(ctx context.Context, spec service.JobSpec, p Backoff) (service.JobStatus, RetryStats, error) {
	var st service.JobStatus
	var stats RetryStats
	var err error
	stats.Retries, err = p.Retry(ctx, func() (err error) {
		stats.Attempts++
		st, err = c.Submit(ctx, spec)
		return err
	}, func(err error) (time.Duration, bool) {
		var be *BusyError
		if errors.As(err, &be) {
			return be.RetryAfter, true
		}
		return 0, false
	})
	return st, stats, err
}

// Job fetches one job's status (including its full trajectory).
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	return c.JobTail(ctx, id, -1)
}

// JobTail fetches one job's status with at most tail trajectory points
// (?tail=N). tail < 0 requests the full trajectory; tail == 0 omits it.
func (c *Client) JobTail(ctx context.Context, id string, tail int) (service.JobStatus, error) {
	path := "/v1/jobs/" + id
	if tail >= 0 {
		path += "?tail=" + strconv.Itoa(tail)
	}
	var st service.JobStatus
	err := c.Call(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// Jobs lists every job the server knows.
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var out struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	err := c.Call(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Wait polls the job until it reaches a terminal state or ctx expires.
// Each wait between polls is jittered uniformly over [¾·poll, 1¼·poll)
// so a cluster of waiters started together does not synchronize into
// lock-step polling bursts, and the ctx deadline is honored both
// between polls and before each request.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	r := rng.New(uint64(time.Now().UnixNano()))
	var last service.JobStatus
	for {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal() {
			return st, nil
		}
		last = st
		wait := 3*poll/4 + time.Duration(r.Float64()*float64(poll/2))
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return last, ctx.Err()
		case <-t.C:
		}
	}
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, err := c.fetch(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Health fetches and parses /healthz. The parsed body is returned even
// alongside a non-200 *HTTPError (a draining server still reports its
// status, queue depth, and identity), so callers can both gate on the
// error and inspect the fields.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	body, err := c.fetch(ctx, http.MethodGet, "/healthz", "", nil)
	var h service.Health
	if uerr := json.Unmarshal(body, &h); uerr != nil && err == nil {
		return h, fmt.Errorf("client: decoding healthz: %w", uerr)
	}
	return h, err
}
