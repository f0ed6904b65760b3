// Package client is a fault-tolerant HTTP client for the hetwired daemon:
// exponential backoff with deterministic jitter, Retry-After honoring,
// retries restricted to idempotent operations, and a circuit breaker that
// fails fast once the daemon looks down.
//
// Submission is made idempotent by keying every POST /v1/jobs with the
// request's canonical content hash (hetwire.RunRequest.CacheKey, itself
// derived from the ConfigHash of the resolved machine): a retried submit
// whose first attempt actually reached the daemon returns the job that
// attempt created instead of enqueueing a duplicate.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/server"
	"hetwire/internal/wire"
	"hetwire/internal/xrand"
)

// Options configures a Client.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8677".
	BaseURL string
	// HTTPClient optionally overrides the transport (default
	// http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds the attempts per operation, first try included
	// (default 6).
	MaxAttempts int
	// TraceID is sent as X-Hetwire-Trace on every request so the daemon's
	// flight events, job status, and span timings correlate back to this
	// client. Empty mints a fresh ID at construction — one per client,
	// covering the whole submit/poll conversation of each operation.
	TraceID string
	// AuthToken, when non-empty, is sent as "Authorization: Bearer <token>"
	// on every request. The cluster node agent uses it to authenticate
	// against a hetwired coordinator's /v1/cluster endpoints.
	AuthToken string
	// TenantKey, when non-empty, is sent as X-Hetwire-Tenant on every
	// request, identifying this client's tenant to a multi-tenant daemon.
	// The dedicated header (rather than Authorization) keeps tenant identity
	// working against coordinators, where Authorization carries the cluster
	// token.
	TenantKey string
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	return o
}

// Retry and breaker policy. Attempt k waits ~baseBackoff<<k with jitter
// drawn from a stream seeded by jitterSeed, capped at maxBackoff; a server
// Retry-After hint overrides the schedule. breakerThreshold consecutive
// transport/5xx failures trip the circuit breaker: calls then fail
// immediately with ErrCircuitOpen until breakerCooldown elapses, after
// which the next call probes the daemon (half-open).
const (
	baseBackoff      = 200 * time.Millisecond
	maxBackoff       = 5 * time.Second
	jitterSeed       = 1
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

// ErrCircuitOpen is returned without touching the network while the breaker
// is open.
var ErrCircuitOpen = errors.New("client: circuit breaker open (daemon looked down recently)")

// APIError is a non-retryable HTTP failure from the daemon. Reason, when
// present, is the daemon's machine-readable rejection code (hetwire.Reason*
// values plus "queue_full"/"draining"/"bad_json"); callers can branch on it
// without parsing the message.
type APIError struct {
	Status  int
	Message string
	Reason  string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: daemon returned %d: %s", e.Status, e.Message)
}

// Client talks to one hetwired daemon. Safe for concurrent use.
type Client struct {
	opts Options

	mu        sync.Mutex
	jitter    *xrand.Source
	fails     int       // consecutive breaker-counted failures
	openUntil time.Time // breaker open while now < openUntil

	// now and sleep are test seams.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for the daemon at opts.BaseURL.
func New(opts Options) *Client {
	opts = opts.withDefaults()
	if opts.TraceID == "" {
		opts.TraceID = server.MintTraceID()
	}
	return &Client{
		opts:   opts,
		jitter: xrand.New(jitterSeed),
		now:    time.Now,
		sleep:  sleepCtx,
	}
}

// TraceID returns the identifier this client stamps on every request.
func (c *Client) TraceID() string { return c.opts.TraceID }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitRun submits one run request as a job. The call is idempotent: it is
// keyed by the request's canonical content hash, so retries (ours or a
// caller's) land on the same job. deadlineMS, when positive, asks the daemon
// to bound the job's wall clock.
func (c *Client) SubmitRun(ctx context.Context, req *hetwire.RunRequest, deadlineMS int64) (server.JobStatus, error) {
	key, err := req.CacheKey()
	if err != nil {
		return server.JobStatus{}, err
	}
	body := struct {
		hetwire.RunRequest
		DeadlineMS int64 `json:"deadline_ms,omitempty"`
	}{RunRequest: *req, DeadlineMS: deadlineMS}
	raw, err := json.Marshal(body)
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	err = c.do(ctx, &apiCall{method: http.MethodPost, path: "/v1/jobs", body: raw, idemKey: "run-" + key}, &st)
	return st, err
}

// SubmitBatch submits a batch job, keyed by the content hash of the
// submission body so retries (ours or a caller's) land on the job the first
// attempt created.
func (c *Client) SubmitBatch(ctx context.Context, batch *hetwire.BatchRequest, deadlineMS int64) (server.JobStatus, error) {
	body := struct {
		Batch      *hetwire.BatchRequest `json:"batch"`
		DeadlineMS int64                 `json:"deadline_ms,omitempty"`
	}{Batch: batch, DeadlineMS: deadlineMS}
	raw, err := json.Marshal(body)
	if err != nil {
		return server.JobStatus{}, err
	}
	sum := sha256.Sum256(raw)
	var st server.JobStatus
	err = c.do(ctx, &apiCall{method: http.MethodPost, path: "/v1/jobs", body: raw,
		idemKey: "batch-" + hex.EncodeToString(sum[:])}, &st)
	return st, err
}

// Job polls one job's status.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, &apiCall{method: http.MethodGet, path: "/v1/jobs/" + id}, &st)
	return st, err
}

// Cancel cancels a queued or running job (idempotent by nature).
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, &apiCall{method: http.MethodDelete, path: "/v1/jobs/" + id}, &st)
	return st, err
}

// Await polls the job until it reaches a terminal state (or ctx ends).
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return st, err
		}
	}
}

// Run submits the request, awaits the job, and decodes the result: the
// whole submit/poll loop with every retry policy applied. A job that ends
// failed or cancelled is reported as an error carrying the job's message.
// A submit answered terminal — a cache hit, or a replay of a finished job —
// already carries the result and is not polled.
func (c *Client) Run(ctx context.Context, req *hetwire.RunRequest, deadlineMS int64) (*hetwire.RunResponse, server.JobStatus, error) {
	st, err := c.SubmitRun(ctx, req, deadlineMS)
	if err != nil {
		return nil, st, err
	}
	if !st.State.Terminal() {
		if st, err = c.Await(ctx, st.ID, 0); err != nil {
			return nil, st, err
		}
	}
	if st.State != server.StateDone {
		return nil, st, fmt.Errorf("client: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var resp hetwire.RunResponse
	if err := json.Unmarshal(st.Result, &resp); err != nil {
		return nil, st, fmt.Errorf("client: decoding result of job %s: %w", st.ID, err)
	}
	return &resp, st, nil
}

// RunWire performs a synchronous run in the binary wire format: POST
// /v1/run with Accept: application/x-hetwire-bin, answered with the stored
// result frame. A 200 body of any other content type is an error. The bool
// result reports whether the daemon served the run from its cache.
func (c *Client) RunWire(ctx context.Context, req *hetwire.RunRequest) (*hetwire.RunResponse, bool, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, false, err
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	var rr rawResponse
	if err := c.do(ctx, &apiCall{
		method: http.MethodPost, path: "/v1/run", body: raw,
		accept: wire.ContentType, idemKey: "run-" + key,
	}, &rr); err != nil {
		return nil, false, err
	}
	hit := rr.cacheHeader == "hit"
	if !strings.HasPrefix(rr.contentType, wire.ContentType) {
		return nil, hit, fmt.Errorf("client: run answered %q, not %s", rr.contentType, wire.ContentType)
	}
	resp, err := wire.DecodeRunResult(rr.body)
	return resp, hit, err
}

// StreamBatch consumes a batch job's binary stream (GET /v1/jobs/{id}/stream),
// invoking fn for each scenario frame as it arrives — in canonical index
// order, before the job has finished — and returning the trailer. Streaming
// is a single attempt by nature (frames already consumed cannot be
// replayed); callers wanting retry semantics should fall back to Await and
// the job result.
func (c *Client) StreamBatch(ctx context.Context, jobID string, fn func(*wire.Scenario) error) (*wire.BatchTrailer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.opts.BaseURL+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", wire.ContentType)
	if c.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	if c.opts.TenantKey != "" {
		req.Header.Set(server.TenantHeader, c.opts.TenantKey)
	}
	req.Header.Set(server.TraceHeader, c.opts.TraceID)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		c.breakerRecord(false)
		return nil, fmt.Errorf("client: streaming job %s: %w", jobID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		c.breakerRecord(true) // the daemon answered; the job is just not streamable
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var msg struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(raw, &msg)
		if msg.Error == "" {
			msg.Error = string(raw)
		}
		return nil, &APIError{Status: resp.StatusCode, Message: msg.Error, Reason: msg.Reason}
	}
	c.breakerRecord(true)
	rd := wire.NewReader(resp.Body)
	var total, seen int
	sawHeader := false
	for {
		h, frame, err := rd.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("client: job %s stream ended without a trailer", jobID)
		}
		if err != nil {
			return nil, fmt.Errorf("client: job %s stream: %w", jobID, err)
		}
		switch h.Type {
		case wire.TypeBatchHeader:
			if sawHeader {
				return nil, fmt.Errorf("client: job %s stream repeated its header", jobID)
			}
			sawHeader = true
			if total, err = wire.DecodeBatchHeader(frame); err != nil {
				return nil, err
			}
		case wire.TypeScenario:
			if !sawHeader {
				return nil, fmt.Errorf("client: job %s stream began mid-batch", jobID)
			}
			sc, err := wire.DecodeScenario(frame)
			if err != nil {
				return nil, err
			}
			if sc.Index != seen {
				return nil, fmt.Errorf("client: job %s stream scenario %d arrived where %d was expected",
					jobID, sc.Index, seen)
			}
			seen++
			if fn != nil {
				if err := fn(sc); err != nil {
					return nil, err
				}
			}
		case wire.TypeBatchTrailer:
			tr, err := wire.DecodeBatchTrailer(frame)
			if err != nil {
				return nil, err
			}
			if !sawHeader || seen != total || tr.Total != total {
				return nil, fmt.Errorf("client: job %s stream delivered %d of %d scenarios", jobID, seen, total)
			}
			return &tr, nil
		default:
			return nil, fmt.Errorf("client: job %s stream carried unexpected frame type %#02x", jobID, h.Type)
		}
	}
}

// DoJSON performs one authenticated API operation under the client's full
// fault-tolerance policy — retries with jittered exponential backoff,
// Retry-After honoring, and the circuit breaker. body, when non-nil, is
// marshalled as the JSON request body; out, when non-nil, receives the
// decoded response. A POST retries only when idemKey is non-empty and the
// server deduplicates replays of it; the cluster protocol's register, lease,
// and upload operations are idempotent by construction (content-addressed
// results, coordinator-side duplicate detection), which is what makes them
// safe to drive through this retry loop.
func (c *Client) DoJSON(ctx context.Context, method, path string, body any, idemKey string, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding %s %s body: %w", method, path, err)
		}
	}
	return c.do(ctx, &apiCall{method: method, path: path, body: raw, idemKey: idemKey}, out)
}

// DoBytes is DoJSON for pre-encoded request bodies: the bytes are sent
// verbatim under the given content type (e.g. a binary wire upload), with
// the same retry, backoff, and breaker policy.
func (c *Client) DoBytes(ctx context.Context, method, path, contentType string, body []byte, idemKey string, out any) error {
	return c.do(ctx, &apiCall{method: method, path: path, body: body, ctype: contentType, idemKey: idemKey}, out)
}

// apiCall describes one HTTP operation for the retry loop.
type apiCall struct {
	method string
	path   string
	body   []byte
	// ctype is the request Content-Type; empty defaults to application/json
	// when a body is present.
	ctype string
	// accept, when set, negotiates the response encoding (the binary wire
	// format); pair it with a *rawResponse out so the undecoded body and its
	// content type reach the caller.
	accept  string
	idemKey string
}

// rawResponse receives an undecoded response body plus the headers content
// negotiation turns on. Pass it as `out` to skip the JSON decode.
type rawResponse struct {
	body        []byte
	contentType string
	cacheHeader string // X-Hetwired-Cache: hit|miss
}

// do performs one API operation with retries, backoff, Retry-After, and the
// circuit breaker. Only idempotent operations retry: GET and DELETE always
// are; a POST is retried only when idemKey is non-empty (the daemon then
// deduplicates replays).
func (c *Client) do(ctx context.Context, call *apiCall, out any) error {
	retryable := call.method == http.MethodGet || call.method == http.MethodDelete || call.idemKey != ""
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.breakerAllow(); err != nil {
			return err
		}
		retryAfter, err := c.once(ctx, call, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var apiErr *APIError
		if errors.As(err, &apiErr) && !retryStatus(apiErr.Status) {
			return err // a definitive daemon answer; retrying cannot help
		}
		if !retryable || attempt == c.opts.MaxAttempts-1 {
			return err
		}
		wait := c.backoff(attempt)
		if retryAfter > 0 {
			wait = retryAfter
		}
		if err := c.sleep(ctx, wait); err != nil {
			return err
		}
	}
	return lastErr
}

// once performs a single HTTP attempt, classifying the outcome for the
// breaker and extracting any Retry-After hint.
func (c *Client) once(ctx context.Context, call *apiCall, out any) (retryAfter time.Duration, err error) {
	var rd io.Reader
	if call.body != nil {
		rd = bytes.NewReader(call.body)
	}
	req, err := http.NewRequestWithContext(ctx, call.method, c.opts.BaseURL+call.path, rd)
	if err != nil {
		return 0, err
	}
	if call.body != nil {
		ct := call.ctype
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
	}
	if call.accept != "" {
		req.Header.Set("Accept", call.accept)
	}
	if call.idemKey != "" {
		req.Header.Set("Idempotency-Key", call.idemKey)
	}
	if c.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	if c.opts.TenantKey != "" {
		req.Header.Set(server.TenantHeader, c.opts.TenantKey)
	}
	req.Header.Set(server.TraceHeader, c.opts.TraceID)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		c.breakerRecord(false)
		return 0, fmt.Errorf("client: %s %s: %w", call.method, call.path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		c.breakerRecord(false)
		return 0, fmt.Errorf("client: reading %s %s response: %w", call.method, call.path, err)
	}
	if resp.StatusCode >= 400 {
		// 429 is the daemon shedding load, not the daemon being broken: it
		// retries but does not count against the breaker.
		c.breakerRecord(resp.StatusCode == http.StatusTooManyRequests)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
				if retryAfter > 30*time.Second {
					retryAfter = 30 * time.Second
				}
			}
		}
		var msg struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(raw, &msg)
		if msg.Error == "" {
			msg.Error = string(raw)
		}
		return retryAfter, &APIError{Status: resp.StatusCode, Message: msg.Error, Reason: msg.Reason}
	}
	c.breakerRecord(true)
	switch o := out.(type) {
	case nil:
	case *rawResponse:
		o.body = raw
		o.contentType = resp.Header.Get("Content-Type")
		o.cacheHeader = resp.Header.Get("X-Hetwired-Cache")
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("client: decoding %s %s response: %w", call.method, call.path, err)
		}
	}
	return 0, nil
}

// retryStatus reports whether an HTTP status is worth retrying.
func retryStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return status == 0 // transport error, no status
}

// backoff returns the jittered exponential delay for the given attempt:
// uniformly in [half, full] of min(maxBackoff, baseBackoff<<attempt).
func (c *Client) backoff(attempt int) time.Duration {
	d := baseBackoff << uint(attempt)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	c.mu.Lock()
	u := c.jitter.Uint64()
	c.mu.Unlock()
	frac := 0.5 + 0.5*float64(u>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// breakerAllow rejects immediately while the breaker is open; once the
// cooldown has elapsed the call proceeds as the half-open probe.
func (c *Client) breakerAllow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now().Before(c.openUntil) {
		return ErrCircuitOpen
	}
	return nil
}

// breakerRecord folds one attempt outcome into the breaker state: a success
// closes it, a failure past the threshold (re-)opens it for the cooldown.
func (c *Client) breakerRecord(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.fails = 0
		c.openUntil = time.Time{}
		return
	}
	c.fails++
	if c.fails >= breakerThreshold {
		c.openUntil = c.now().Add(breakerCooldown)
	}
}

// Breaker reports whether the circuit is currently open (test observability).
func (c *Client) Breaker() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now().Before(c.openUntil)
}
