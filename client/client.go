// Package client is the typed Go client for the crowdgate /v1 API
// (docs/api.md): batch response ingest, worker-quality queries, pool
// review and health, with transparent jittered retries that honor the
// gateway's Retry-After hints.
//
// Retries follow the same discipline as the cluster RPC layer
// (internal/dist): a 429 — rate-limited or shed — is always retried,
// because the gateway rejects before admitting the request, so nothing
// was ingested; network failures and upstream 5xx are retried only on
// idempotent reads, never on ingest, whose delivery state is unknown.
// Backoff doubles from RetryPolicy.Backoff with deterministic jitter in
// [d/2, d] so a fleet of clients never retries in lockstep.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryPolicy bounds the client's retry behavior. The zero value
// disables retries; DefaultRetryPolicy is the deployment starting point.
type RetryPolicy struct {
	// Retries is how many re-attempts follow the first try. 0 disables
	// retrying.
	Retries int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff, with deterministic jitter
	// in [d/2, d] (seeded by JitterSeed).
	Backoff time.Duration
	// MaxBackoff caps the doubled delay. 0 means uncapped.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream; give each client
	// in a fleet a different seed to spread their retries.
	JitterSeed uint64
}

// DefaultRetryPolicy retries three times with 100ms base backoff capped
// at 5s — patient enough to ride out a rate-limit window, bounded
// enough that a dead gateway fails the call in seconds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Retries: 3, Backoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second}
}

// splitmix64 is the 64-bit finalizer behind the jitter stream — the
// same mixer the cluster layer uses for its retry backoff.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jitter returns a deterministic value in [d/2, d] for the given
// stream key and attempt.
func (p RetryPolicy) jitter(d time.Duration, attempt int, key uint64) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	j := splitmix64(p.JitterSeed ^ splitmix64(key^uint64(attempt)))
	return half + time.Duration(j%uint64(half+1))
}

// backoff returns the jittered delay before retry attempt (0-based) on
// the stream identified by key.
func (p RetryPolicy) backoff(attempt int, key uint64) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return p.jitter(d, attempt, key)
}

// APIError is a non-2xx gateway response: the HTTP status, the stable
// machine-readable code and human message from the unified error
// envelope, and the parsed Retry-After hint when the gateway sent one.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's stable error code (e.g. "rate_limited",
	// "overloaded", "unauthorized").
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// RetryAfter is the gateway's Retry-After hint, or 0.
	RetryAfter time.Duration
}

// Error renders the failure for logs.
func (e *APIError) Error() string {
	return fmt.Sprintf("gate: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether the error is worth retrying at all: 429
// (rate-limited or shed — the request was never admitted) and upstream
// 5xx failures. Whether the client actually retries also depends on
// the request being idempotent for the 5xx case.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Client talks to one crowdgate tenant. It is safe for concurrent use.
type Client struct {
	base  string
	token string
	hc    *http.Client
	retry RetryPolicy
}

// New returns a client for the tenant identified by token at the given
// base URL (e.g. "http://gate:8080"), with a 30-second HTTP timeout and
// DefaultRetryPolicy. Adjust with WithHTTPClient and WithRetry.
func New(baseURL, token string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		token: token,
		hc:    &http.Client{Timeout: 30 * time.Second},
		retry: DefaultRetryPolicy(),
	}
}

// WithHTTPClient substitutes the underlying HTTP client and returns the
// same Client for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// WithRetry substitutes the retry policy and returns the same Client
// for chaining.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// Response is one crowd response for ingest.
type Response struct {
	// Worker is the worker index in the tenant's crowd, 0-based.
	Worker int `json:"worker"`
	// Task is the non-negative task index.
	Task int `json:"task"`
	// Answer is the response class: 1 (yes) or 2 (no).
	Answer int `json:"answer"`
}

// IngestResult reports one ingest batch's outcome.
type IngestResult struct {
	// Ingested responses were recorded.
	Ingested int `json:"ingested"`
	// Rejected responses were turned away because the worker is fired.
	Rejected int `json:"rejected"`
}

// Estimate is a worker error-rate confidence interval.
type Estimate struct {
	// Mean is the point estimate.
	Mean float64 `json:"mean"`
	// Lo and Hi are the interval endpoints.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Confidence is the interval's confidence level.
	Confidence float64 `json:"confidence"`
}

// Worker is one worker's quality record.
type Worker struct {
	// Worker is the worker index.
	Worker int `json:"worker"`
	// State is "probation", "active" or "fired".
	State string `json:"state"`
	// Responses is the recorded-response count.
	Responses int `json:"responses"`
	// Estimate is the current interval, or nil before enough responses.
	Estimate *Estimate `json:"estimate"`
}

// Decision is one lifecycle decision from a pool review.
type Decision struct {
	// Worker is the worker the decision concerns.
	Worker int `json:"worker"`
	// Action is "no-change", "promote" or "fire".
	Action string `json:"action"`
	// State is the worker's state after the action.
	State string `json:"state"`
	// IntervalLo and IntervalHi are the evidence interval endpoints.
	IntervalLo float64 `json:"interval_lo"`
	IntervalHi float64 `json:"interval_hi"`
	// Reason explains the decision.
	Reason string `json:"reason"`
}

// Health is the gateway liveness body.
type Health struct {
	// Status is "ok".
	Status string `json:"status"`
	// UptimeSeconds is the gateway's uptime.
	UptimeSeconds float64 `json:"uptime_s"`
	// Tenants is the configured tenant count.
	Tenants int `json:"tenants"`
}

// IngestBatch records a batch of responses. It retries after 429 —
// rate-limit or shed responses are issued before admission, so the
// batch was not recorded — but never after a network failure or
// upstream error, whose delivery state is unknown.
func (c *Client) IngestBatch(ctx context.Context, responses []Response) (IngestResult, error) {
	var out IngestResult
	// 48 bytes cover a record of small indices, so a typical batch is
	// encoded without regrowing the buffer.
	body := appendIngestBody(make([]byte, 0, 16+48*len(responses)), responses)
	err := c.do(ctx, http.MethodPost, "/v1/responses:batch", body, &out, false)
	return out, err
}

// appendIngestBody appends the ingest request body for responses to dst:
// the bytes json.Marshal writes for {"responses": responses}, which is
// also the canonical form the gateway parses without reflection.
func appendIngestBody(dst []byte, responses []Response) []byte {
	if responses == nil {
		return append(dst, `{"responses":null}`...)
	}
	dst = append(dst, `{"responses":[`...)
	for i, r := range responses {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"worker":`...)
		dst = strconv.AppendInt(dst, int64(r.Worker), 10)
		dst = append(dst, `,"task":`...)
		dst = strconv.AppendInt(dst, int64(r.Task), 10)
		dst = append(dst, `,"answer":`...)
		dst = strconv.AppendInt(dst, int64(r.Answer), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// WorkerInfo fetches one worker's quality record. Idempotent: retried
// on 429, network failures and upstream errors alike.
func (c *Client) WorkerInfo(ctx context.Context, id int) (Worker, error) {
	var out Worker
	err := c.do(ctx, http.MethodGet, "/v1/workers/"+strconv.Itoa(id), nil, &out, true)
	return out, err
}

// Workers fetches every worker's quality record.
func (c *Client) Workers(ctx context.Context) ([]Worker, error) {
	var out struct {
		Workers []Worker `json:"workers"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out, true)
	return out.Workers, err
}

// Review runs one pool lifecycle review and returns the decisions. A
// review is idempotent in effect — re-reviewing unchanged statistics
// re-emits the same decisions — but a lost response leaves applied
// transitions unreported, so like ingest it retries only after 429.
func (c *Client) Review(ctx context.Context) ([]Decision, error) {
	var out struct {
		Decisions []Decision `json:"decisions"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/pool/review", nil, &out, false)
	return out.Decisions, err
}

// Healthz probes gateway liveness (no auth required by the server; the
// client sends its token anyway, harmlessly).
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out, true)
	return out, err
}

// do runs one API call with the retry loop. payload is the encoded
// request body, nil for none. idempotent marks requests that may be
// retried after ambiguous failures (network errors, 5xx); 429 is retried
// regardless, honoring Retry-After.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, out any, idempotent bool) error {
	h := fnv.New64a()
	// Hash writes never fail; key only seeds jitter.
	_, _ = io.WriteString(h, method+" "+path)
	key := h.Sum64()
	var lastErr error
	for attempt := 0; attempt <= c.retry.Retries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.delay(lastErr, attempt-1, key)); err != nil {
				return err
			}
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return fmt.Errorf("client: building request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("Authorization", "Bearer "+c.token)
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if !idempotent {
				return lastErr
			}
			continue
		}
		apiErr := drain(resp, out)
		if apiErr == nil {
			return nil
		}
		lastErr = apiErr
		retryable := apiErr.Status == http.StatusTooManyRequests ||
			(idempotent && apiErr.Temporary())
		if !retryable {
			return apiErr
		}
	}
	return lastErr
}

// delay picks the wait before the next attempt: the gateway's
// Retry-After when the last failure carried one — jittered upward into
// [ra, 1.5*ra] so a shed fleet doesn't return in lockstep the moment
// the hint expires — otherwise the policy's exponential backoff.
func (c *Client) delay(lastErr error, attempt int, key uint64) time.Duration {
	if ae, ok := lastErr.(*APIError); ok && ae.RetryAfter > 0 {
		return ae.RetryAfter + c.retry.jitter(ae.RetryAfter, attempt, key)/2
	}
	return c.retry.backoff(attempt, key)
}

// drain consumes one response: decode out on 2xx, or build the APIError
// from the envelope and Retry-After header.
func drain(resp *http.Response, out any) *APIError {
	defer func() {
		// Draining lets the transport reuse the connection; a failed drain
		// just forfeits reuse.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return &APIError{Status: resp.StatusCode, Code: "bad_body",
				Message: "decoding response: " + err.Error()}
		}
		return nil
	}
	ae := &APIError{Status: resp.StatusCode, Code: "unknown"}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error.Code != "" {
		ae.Code, ae.Message = envelope.Error.Code, envelope.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
