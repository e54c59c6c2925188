// Package gate is the public serving layer in front of the assessment
// engine: a versioned HTTP/JSON API with per-tenant namespaces, static
// token auth, token-bucket rate limiting, and admission-control
// backpressure that sheds load with 429 + Retry-After before the
// coordinator behind it melts.
//
// Each tenant owns an isolated pool.Manager — its own crowd, statistics
// and lifecycle state — so one gateway serves many customers without any
// cross-tenant visibility. A tenant's manager can run over a local
// sharded evaluator (the default) or over a distributed cluster via
// dist.ClusterEvaluator; the routes behave identically.
//
// Routes (see docs/api.md for the full reference):
//
//	POST /v1/responses:batch  batch response ingest
//	GET  /v1/workers/{id}     one worker's state, responses and interval
//	GET  /v1/workers          every worker's quality record
//	POST /v1/pool/review      run one lifecycle review, return decisions
//	GET  /v1/healthz          liveness (unauthenticated)
//
// Every non-2xx response carries the ErrorBody envelope. Rate-limited
// and shed requests answer 429 with a Retry-After header; authenticated
// successes carry X-RateLimit-Limit and X-RateLimit-Remaining when the
// tenant is rate-limited.
package gate

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
)

// MaxBatch is the largest number of responses one POST /v1/responses:batch
// call may carry; larger batches are rejected with 400 rather than letting
// a single request monopolize an admission slot.
const MaxBatch = 10000

// maxBodyBytes bounds a request body read: MaxBatch small JSON records
// fit comfortably, anything larger is garbage or abuse.
const maxBodyBytes = 8 << 20

// TenantConfig declares one tenant namespace of the gateway.
type TenantConfig struct {
	// Name identifies the tenant in metrics and logs. Required, unique.
	Name string
	// Token is the tenant's static bearer token. Required, unique,
	// compared constant-time.
	Token string
	// Workers is the tenant's crowd size. Required unless Manager is set.
	Workers int
	// Shards is the tenant's local evaluator shard count; 0 means one
	// shard, which like any shard count takes a lock on every Add, so
	// concurrent ingest requests are safe. Ignored when Manager is set.
	Shards int
	// Policy sets the tenant's pool decision bars; nil selects
	// pool.DefaultPolicy.
	Policy *pool.Policy
	// RatePerSec caps the tenant's sustained request rate through a token
	// bucket; 0 or negative means unlimited.
	RatePerSec float64
	// Burst is the token bucket capacity; 0 selects ceil(RatePerSec),
	// floored at one token.
	Burst int
	// Manager, when non-nil, is the tenant's pre-built backend — this is
	// how a tenant fronts a distributed cluster (pool.NewManagerWith over
	// dist.NewClusterEvaluator). When nil, the gateway builds a local
	// sharded manager from Workers/Shards/Policy.
	Manager *pool.Manager
	// Flush, when non-nil, runs after every ingest batch — the hook a
	// buffered cluster evaluator needs to ship the batch and surface
	// remote rejections on the request that carried them.
	Flush func() error
}

// Options configures New.
type Options struct {
	// Tenants is the tenant set; at least one is required.
	Tenants []TenantConfig
	// QueueDepth bounds the number of requests admitted into the backend
	// concurrently; requests beyond it are shed with 429 + Retry-After.
	// 0 selects DefaultQueueDepth.
	QueueDepth int
	// RetryAfter is the advisory Retry-After duration on shed (queue
	// full) responses; 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// Registry receives gate_requests_total{tenant,code},
	// gate_queue_depth and gate_request_seconds{route}; its clock drives
	// the rate limiters. Nil builds a private registry on the system
	// clock.
	Registry *obs.Registry
	// Logger, when non-nil, gets one structured line per rejected
	// request (auth failures, sheds) — successes are the HTTP
	// middleware's job.
	Logger *slog.Logger
}

// DefaultQueueDepth is the admission-queue bound when Options.QueueDepth
// is zero: deep enough to keep a healthy backend busy, shallow enough
// that a wedged one sheds within one client timeout.
const DefaultQueueDepth = 64

// DefaultRetryAfter is the advisory Retry-After on shed responses when
// Options.RetryAfter is zero.
const DefaultRetryAfter = time.Second

// tenant is one resolved tenant namespace.
type tenant struct {
	name   string
	token  []byte
	mgr    *pool.Manager
	flush  func() error
	bucket *tokenBucket
	limit  float64 // advertised X-RateLimit-Limit; 0 = unlimited
}

// Gateway is the serving layer: an http.Handler multiplexing the /v1
// API over its tenant set. Build one with New; it is safe for
// concurrent use.
type Gateway struct {
	reg     *obs.Registry
	clock   obs.Clock
	logger  *slog.Logger
	tenants []*tenant
	sem     chan struct{}
	shedSec float64 // Retry-After seconds advertised on sheds
	mux     *http.ServeMux
}

// New builds a gateway over the given tenants. Each tenant without a
// pre-built Manager gets its own local sharded pool manager, so tenants
// are isolated by construction: there is no route that reaches another
// tenant's statistics.
func New(opts Options) (*Gateway, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("gate: at least one tenant is required")
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry(nil)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("gate: negative QueueDepth %d", opts.QueueDepth)
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	retryAfter := opts.RetryAfter
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	g := &Gateway{
		reg:     reg,
		clock:   reg.Clock(),
		logger:  opts.Logger,
		sem:     make(chan struct{}, depth),
		shedSec: retryAfter.Seconds(),
	}
	names := map[string]bool{}
	tokens := map[string]bool{}
	for _, tc := range opts.Tenants {
		if tc.Name == "" || tc.Token == "" {
			return nil, fmt.Errorf("gate: tenant name and token are required")
		}
		if names[tc.Name] {
			return nil, fmt.Errorf("gate: duplicate tenant name %q", tc.Name)
		}
		if tokens[tc.Token] {
			return nil, fmt.Errorf("gate: duplicate token (tenant %q)", tc.Name)
		}
		names[tc.Name], tokens[tc.Token] = true, true
		mgr := tc.Manager
		if mgr == nil {
			if tc.Workers <= 0 {
				return nil, fmt.Errorf("gate: tenant %q: positive Workers required without a Manager", tc.Name)
			}
			policy := pool.DefaultPolicy()
			if tc.Policy != nil {
				policy = *tc.Policy
			}
			ev, err := core.NewShardedIncremental(tc.Workers, max(tc.Shards, 1))
			if err == nil {
				mgr, err = pool.NewManagerWith(ev, policy)
			}
			if err != nil {
				return nil, fmt.Errorf("gate: tenant %q: %w", tc.Name, err)
			}
		}
		t := &tenant{name: tc.Name, token: []byte(tc.Token), mgr: mgr, flush: tc.Flush}
		if tc.RatePerSec > 0 {
			t.bucket = newTokenBucket(g.clock, tc.RatePerSec, tc.Burst)
			t.limit = tc.RatePerSec
		}
		g.tenants = append(g.tenants, t)
	}
	reg.GaugeFunc("gate_queue_depth",
		"Requests currently admitted into the gateway's backend queue.",
		func() float64 { return float64(len(g.sem)) })
	g.mux = http.NewServeMux()
	g.route("/v1/responses:batch", http.MethodPost, g.handleIngest)
	g.route("/v1/workers", http.MethodGet, g.handleWorkers)
	g.route("/v1/workers/{id}", http.MethodGet, g.handleWorker)
	g.route("/v1/pool/review", http.MethodPost, g.handleReview)
	g.mux.HandleFunc("/v1/healthz", g.observe("/v1/healthz", g.handleHealthz))
	return g, nil
}

// ServeHTTP serves the /v1 API.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Tenant returns the backend pool manager for the named tenant, or nil —
// for operators embedding the gateway that need direct access (tests,
// warm-up loaders).
func (g *Gateway) Tenant(name string) *pool.Manager {
	for _, t := range g.tenants {
		if t.name == name {
			return t.mgr
		}
	}
	return nil
}

// statusRecorder captures the status code a handler wrote so the
// request counter can label it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// route registers an authenticated, rate-limited, admission-controlled
// API route. The method check is ours (not the mux pattern's) so a
// wrong-method hit gets the JSON envelope, not net/http's text page.
func (g *Gateway) route(pattern, method string, h func(*tenant, http.ResponseWriter, *http.Request)) {
	g.mux.HandleFunc(pattern, g.observe(pattern, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("%s requires %s", pattern, method))
			return
		}
		t := g.authenticate(r)
		if t == nil {
			g.reject(r, "auth")
			writeError(w, http.StatusUnauthorized, CodeUnauthorized,
				"missing or unrecognized bearer token")
			return
		}
		if t.bucket != nil {
			ok, remaining, retryAfter := t.bucket.take()
			w.Header().Set("X-RateLimit-Limit", strconv.FormatFloat(t.limit, 'g', -1, 64))
			w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
			if !ok {
				g.reject(r, "rate")
				w.Header().Set("Retry-After", retryAfterSeconds(retryAfter.Seconds()))
				writeError(w, http.StatusTooManyRequests, CodeRateLimited,
					fmt.Sprintf("tenant %q over %g req/s", t.name, t.limit))
				return
			}
		}
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
		default:
			g.reject(r, "shed")
			w.Header().Set("Retry-After", retryAfterSeconds(g.shedSec))
			writeError(w, http.StatusTooManyRequests, CodeOverloaded,
				"ingest queue full; retry after backoff")
			return
		}
		h(t, w, r)
	}))
}

// observe wraps a handler with the gateway's own metrics: per-route
// latency and a per-tenant, per-status request counter. The tenant
// label resolves to "-" for unauthenticated traffic so failed auth
// cannot mint unbounded label values.
func (g *Gateway) observe(routeLabel string, h http.HandlerFunc) http.HandlerFunc {
	hist := g.reg.Histogram("gate_request_seconds",
		"Gateway request latency by route.", nil, obs.Label{Key: "route", Value: routeLabel})
	return func(w http.ResponseWriter, r *http.Request) {
		start := g.clock.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		hist.Observe(g.clock.Since(start).Seconds())
		name := "-"
		if t := g.authenticate(r); t != nil {
			name = t.name
		}
		g.reg.Counter("gate_requests_total",
			"Gateway requests by tenant and status code.",
			obs.Label{Key: "tenant", Value: name},
			obs.Label{Key: "code", Value: strconv.Itoa(rec.status)}).Inc()
	}
}

// reject logs one structured line for a turned-away request.
func (g *Gateway) reject(r *http.Request, why string) {
	if g.logger != nil {
		g.logger.Info("gate_reject", "path", r.URL.Path, "why", why)
	}
}

// authenticate resolves the request's bearer token to a tenant, or nil.
// Comparison is constant-time per tenant; the tenant count is small and
// operator-controlled, so the scan itself leaks nothing useful.
func (g *Gateway) authenticate(r *http.Request) *tenant {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return nil
	}
	token := []byte(strings.TrimPrefix(auth, prefix))
	for _, t := range g.tenants {
		if len(t.token) == len(token) && subtle.ConstantTimeCompare(t.token, token) == 1 {
			return t
		}
	}
	return nil
}

// retryAfterSeconds renders a Retry-After header value: integral
// seconds, rounded up, floored at 1 (a Retry-After of 0 invites an
// immediate retry into the same congestion).
func retryAfterSeconds(s float64) string {
	n := int(s)
	if float64(n) < s {
		n++
	}
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

// ResponseRec is one crowd response in an ingest batch.
type ResponseRec struct {
	// Worker is the worker index in the tenant's crowd, 0-based.
	Worker int `json:"worker"`
	// Task is the task index, 0…2³¹−1 (core.MaxTask); tasks need not be
	// numbered densely.
	Task int `json:"task"`
	// Answer is the response class: 1 (yes) or 2 (no) for binary crowds.
	Answer int `json:"answer"`
}

// IngestRequest is the body of POST /v1/responses:batch.
type IngestRequest struct {
	Responses []ResponseRec `json:"responses"`
}

// IngestResult is the success body of POST /v1/responses:batch.
type IngestResult struct {
	// Ingested is the number of responses recorded.
	Ingested int `json:"ingested"`
	// Rejected is the number of responses turned away because the worker
	// is fired — not an error: the paper's lifecycle excludes fired
	// workers from further tasks, and a racing submission is expected.
	Rejected int `json:"rejected"`
}

// bodyBufs and ingestBatches recycle handleIngest's body buffers and the
// batches it hands the pool manager. Nothing decoded from a body refers
// into its buffer.
var (
	bodyBufs      = sync.Pool{New: func() any { return new([]byte) }}
	ingestBatches = sync.Pool{New: func() any { return new([]core.Response) }}
)

// handleIngest is POST /v1/responses:batch: read the body whole, validate
// the whole batch up front, then record it through the tenant's pool
// manager in one RecordBatch — fired workers count as rejected — and flush
// the backend so remote rejections surface on this request.
func (g *Gateway) handleIngest(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	buf := bodyBufs.Get().(*[]byte)
	body, err := readBody(*buf, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		err = decodeIngest(body, &req)
		*buf = body
	}
	bodyBufs.Put(buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding body: "+err.Error())
		return
	}
	if len(req.Responses) > MaxBatch {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Responses), MaxBatch))
		return
	}
	if msg := validateBatch(req.Responses, t.mgr.Workers()); msg != "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, msg)
		return
	}
	batch := ingestBatches.Get().(*[]core.Response)
	rs := (*batch)[:0]
	for _, rec := range req.Responses {
		rs = append(rs, core.Response{Worker: rec.Worker, Task: rec.Task, Answer: crowd.Response(rec.Answer)})
	}
	ingested, rejected, err := t.mgr.RecordBatch(rs)
	*batch = rs
	ingestBatches.Put(batch)
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	res := IngestResult{Ingested: ingested, Rejected: rejected}
	if t.flush != nil {
		if err := t.flush(); err != nil {
			writeError(w, http.StatusBadGateway, CodeUpstream, err.Error())
			return
		}
	}
	writeJSON(w, res)
}

// EstimateView is a confidence interval as the API renders it.
type EstimateView struct {
	// Mean is the point estimate of the worker's error rate.
	Mean float64 `json:"mean"`
	// Lo and Hi are the interval endpoints.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Confidence is the interval's confidence level.
	Confidence float64 `json:"confidence"`
}

// WorkerView is the body of GET /v1/workers/{id} and one element of
// GET /v1/workers.
type WorkerView struct {
	// Worker is the worker index.
	Worker int `json:"worker"`
	// State is the lifecycle state: "probation", "active" or "fired".
	State string `json:"state"`
	// Responses is how many of the worker's responses are recorded.
	Responses int `json:"responses"`
	// Estimate is the current error-rate interval, null until the policy's
	// MinResponses responses are recorded (or while no estimate exists).
	Estimate *EstimateView `json:"estimate"`
}

// handleWorker is GET /v1/workers/{id}: one worker's quality record
// from the tenant's isolated statistics.
func (g *Gateway) handleWorker(t *tenant, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "worker id must be an integer")
		return
	}
	if id < 0 || id >= t.mgr.Workers() {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("worker %d outside crowd of %d", id, t.mgr.Workers()))
		return
	}
	info, err := t.mgr.WorkerInfo(id)
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	writeJSON(w, workerView(info))
}

// handleWorkers is GET /v1/workers: the whole crowd's quality records.
func (g *Gateway) handleWorkers(t *tenant, w http.ResponseWriter, r *http.Request) {
	infos, err := t.mgr.WorkerInfos()
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	views := make([]WorkerView, len(infos))
	for i, info := range infos {
		views[i] = workerView(info)
	}
	writeJSON(w, map[string]any{"workers": views})
}

// workerView renders one pool.WorkerInfo for the API.
func workerView(info pool.WorkerInfo) WorkerView {
	v := WorkerView{Worker: info.Worker, State: info.State.String(), Responses: info.Responses}
	if info.Estimate != nil {
		iv := info.Estimate.Interval
		v.Estimate = &EstimateView{Mean: iv.Mean, Lo: iv.Lo, Hi: iv.Hi, Confidence: iv.Confidence}
	}
	return v
}

// DecisionView is one lifecycle decision as POST /v1/pool/review
// renders it.
type DecisionView struct {
	// Worker is the worker the decision concerns.
	Worker int `json:"worker"`
	// Action is "no-change", "promote" or "fire".
	Action string `json:"action"`
	// State is the worker's state after the action.
	State string `json:"state"`
	// IntervalLo and IntervalHi are the evidence interval endpoints
	// (zero when the decision used the spammer screen).
	IntervalLo float64 `json:"interval_lo"`
	IntervalHi float64 `json:"interval_hi"`
	// Reason explains the decision in the policy's terms.
	Reason string `json:"reason"`
}

// ReviewResult is the body of POST /v1/pool/review.
type ReviewResult struct {
	Decisions []DecisionView `json:"decisions"`
}

// handleReview is POST /v1/pool/review: apply the tenant's policy to
// its current statistics and return the decisions.
func (g *Gateway) handleReview(t *tenant, w http.ResponseWriter, r *http.Request) {
	decisions, err := t.mgr.Review()
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	res := ReviewResult{Decisions: make([]DecisionView, len(decisions))}
	for i, d := range decisions {
		res.Decisions[i] = DecisionView{
			Worker: d.Worker, Action: d.Action.String(), State: d.State.String(),
			IntervalLo: d.Interval.Lo, IntervalHi: d.Interval.Hi, Reason: d.Reason,
		}
	}
	writeJSON(w, res)
}

// HealthView is the body of GET /v1/healthz.
type HealthView struct {
	// Status is "ok" — the gateway answers or it doesn't.
	Status string `json:"status"`
	// UptimeSeconds is the gateway's registry uptime.
	UptimeSeconds float64 `json:"uptime_s"`
	// Tenants is the number of configured tenant namespaces.
	Tenants int `json:"tenants"`
}

// handleHealthz is GET /v1/healthz — unauthenticated liveness, outside
// rate limiting and admission control so probes never contend with
// traffic.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "/v1/healthz requires GET")
		return
	}
	writeJSON(w, HealthView{Status: "ok", UptimeSeconds: g.reg.Uptime().Seconds(), Tenants: len(g.tenants)})
}

// writeJSON writes a 200 JSON body.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	//crowdvet:ignore errclass bodies are flat views assembled above; the only encode failure is the client hanging up
	_ = json.NewEncoder(w).Encode(body)
}
