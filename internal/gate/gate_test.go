package gate_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// fakeClock is a settable clock so rate-limit tests drive refills
// explicitly instead of sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// doReq runs one request against the gateway and returns the recorder.
func doReq(t *testing.T, gw *gate.Gateway, method, path, token, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, req)
	return w
}

// envelopeCode decodes the unified error envelope and returns its code.
func envelopeCode(t *testing.T, body string) string {
	t.Helper()
	var eb gate.ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("response %q is not the error envelope: %v", body, err)
	}
	if eb.Error.Message == "" {
		t.Errorf("envelope %q carries no message", body)
	}
	return eb.Error.Code
}

func newTwoTenantGateway(t *testing.T) *gate.Gateway {
	t.Helper()
	gw, err := gate.New(gate.Options{Tenants: []gate.TenantConfig{
		{Name: "alpha", Token: "alpha-token", Workers: 4},
		{Name: "beta", Token: "beta-token", Workers: 8},
	}})
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	return gw
}

func TestAuthRejectionEnvelope(t *testing.T) {
	gw := newTwoTenantGateway(t)
	cases := []struct {
		name, header string
	}{
		{"missing token", ""},
		{"wrong token", "Bearer nope"},
		{"near-miss token", "Bearer alpha-token2"},
		{"malformed scheme", "Token alpha-token"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, "/v1/workers/0", nil)
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, req)
		if w.Code != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", tc.name, w.Code)
		}
		if code := envelopeCode(t, w.Body.String()); code != gate.CodeUnauthorized {
			t.Errorf("%s: envelope code %q, want %q", tc.name, code, gate.CodeUnauthorized)
		}
	}

	// Healthz stays open: no token required.
	if w := doReq(t, gw, http.MethodGet, "/v1/healthz", "", ""); w.Code != http.StatusOK {
		t.Errorf("healthz without token: status %d, want 200", w.Code)
	}
}

func TestMethodNotAllowedEnvelope(t *testing.T) {
	gw := newTwoTenantGateway(t)
	w := doReq(t, gw, http.MethodGet, "/v1/responses:batch", "alpha-token", "")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", w.Code)
	}
	if code := envelopeCode(t, w.Body.String()); code != gate.CodeMethodNotAllowed {
		t.Errorf("envelope code %q, want %q", code, gate.CodeMethodNotAllowed)
	}
}

func TestCrossTenantIsolation(t *testing.T) {
	gw := newTwoTenantGateway(t)

	// Alpha ingests two responses for worker 1.
	w := doReq(t, gw, http.MethodPost, "/v1/responses:batch", "alpha-token",
		`{"responses":[{"worker":1,"task":0,"answer":1},{"worker":1,"task":1,"answer":2}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("alpha ingest: status %d body %s", w.Code, w.Body.String())
	}
	var res gate.IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || res.Ingested != 2 {
		t.Fatalf("alpha ingest result %s (err %v), want ingested 2", w.Body.String(), err)
	}

	// Alpha sees its own statistics...
	var wv gate.WorkerView
	w = doReq(t, gw, http.MethodGet, "/v1/workers/1", "alpha-token", "")
	if err := json.Unmarshal(w.Body.Bytes(), &wv); err != nil || wv.Responses != 2 {
		t.Fatalf("alpha worker 1 = %s (err %v), want 2 responses", w.Body.String(), err)
	}

	// ...and beta sees none of them: same worker index, isolated crowd.
	w = doReq(t, gw, http.MethodGet, "/v1/workers/1", "beta-token", "")
	if err := json.Unmarshal(w.Body.Bytes(), &wv); err != nil || wv.Responses != 0 {
		t.Fatalf("beta worker 1 = %s (err %v), want 0 responses", w.Body.String(), err)
	}

	// Index spaces are per-tenant too: worker 5 exists for beta (crowd 8)
	// but not for alpha (crowd 4).
	if w = doReq(t, gw, http.MethodGet, "/v1/workers/5", "beta-token", ""); w.Code != http.StatusOK {
		t.Errorf("beta worker 5: status %d, want 200", w.Code)
	}
	w = doReq(t, gw, http.MethodGet, "/v1/workers/5", "alpha-token", "")
	if w.Code != http.StatusNotFound {
		t.Errorf("alpha worker 5: status %d, want 404", w.Code)
	}
	if code := envelopeCode(t, w.Body.String()); code != gate.CodeNotFound {
		t.Errorf("alpha worker 5 envelope code %q, want %q", code, gate.CodeNotFound)
	}
}

func TestRateLimit429Envelope(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	reg := obs.NewRegistry(clk)
	gw, err := gate.New(gate.Options{
		Registry: reg,
		Tenants: []gate.TenantConfig{
			{Name: "limited", Token: "tok", Workers: 4, RatePerSec: 1, Burst: 2},
		},
	})
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}

	// The bucket starts full: Burst requests pass, carrying the
	// rate-limit headers.
	for i := 0; i < 2; i++ {
		w := doReq(t, gw, http.MethodGet, "/v1/workers/0", "tok", "")
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-RateLimit-Limit"); got != "1" {
			t.Errorf("request %d: X-RateLimit-Limit %q, want \"1\"", i, got)
		}
	}

	// The third request inside the same instant is over the limit.
	w := doReq(t, gw, http.MethodGet, "/v1/workers/0", "tok", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit: status %d, want 429", w.Code)
	}
	if code := envelopeCode(t, w.Body.String()); code != gate.CodeRateLimited {
		t.Errorf("over-limit envelope code %q, want %q", code, gate.CodeRateLimited)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("over-limit Retry-After %q, want \"1\"", ra)
	}
	if rem := w.Header().Get("X-RateLimit-Remaining"); rem != "0" {
		t.Errorf("over-limit X-RateLimit-Remaining %q, want \"0\"", rem)
	}

	// One second later a token has accrued.
	clk.advance(time.Second)
	if w := doReq(t, gw, http.MethodGet, "/v1/workers/0", "tok", ""); w.Code != http.StatusOK {
		t.Errorf("after refill: status %d, want 200", w.Code)
	}
}

// wedgedEvaluator delegates to a real evaluator but blocks every Add
// until released, emulating a coordinator that stopped answering.
type wedgedEvaluator struct {
	core.StreamingEvaluator
	entered chan struct{} // closed once the first Add is inside
	release chan struct{} // Adds proceed when closed
	once    sync.Once
}

func (w *wedgedEvaluator) Add(wk, t int, r crowd.Response) error {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.StreamingEvaluator.Add(wk, t, r)
}

func TestBackpressureSheddingUnderWedgedBackend(t *testing.T) {
	inner, err := core.NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatalf("NewShardedIncremental: %v", err)
	}
	wedged := &wedgedEvaluator{
		StreamingEvaluator: inner,
		entered:            make(chan struct{}),
		release:            make(chan struct{}),
	}
	mgr, err := pool.NewManagerWith(wedged, pool.DefaultPolicy())
	if err != nil {
		t.Fatalf("NewManagerWith: %v", err)
	}
	gw, err := gate.New(gate.Options{
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		Tenants:    []gate.TenantConfig{{Name: "t", Token: "tok", Manager: mgr}},
	})
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	ingest := func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/responses:batch",
			strings.NewReader(`{"responses":[{"worker":0,"task":0,"answer":1}]}`))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer tok")
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	// One request wedges inside the backend, owning the only admission
	// slot.
	type result struct {
		resp *http.Response
		err  error
	}
	firstDone := make(chan result, 1)
	go func() {
		resp, err := ingest()
		firstDone <- result{resp, err}
	}()
	<-wedged.entered

	// Every further API request is shed before admission: 429 with the
	// overloaded code and the configured Retry-After.
	resp, err := ingest()
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d body %s, want 429", resp.StatusCode, body)
	}
	if code := envelopeCode(t, string(body)); code != gate.CodeOverloaded {
		t.Errorf("shed envelope code %q, want %q", code, gate.CodeOverloaded)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("shed Retry-After %q, want \"3\"", ra)
	}

	// Healthz stays exempt from admission control while saturated — the
	// probe must not report a shedding gateway dead.
	hz, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz during saturation: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz during saturation: status %d, want 200", hz.StatusCode)
	}

	// Unwedging the backend lets the admitted request finish normally —
	// it was queued, not dropped.
	close(wedged.release)
	r := <-firstDone
	if r.err != nil {
		t.Fatalf("wedged request: %v", r.err)
	}
	defer r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Errorf("wedged request: status %d, want 200", r.resp.StatusCode)
	}
}

// TestDefaultShardsTenantConcurrentIngest drives concurrent ingest batches
// and a review through a tenant left at Shards: 0. That default must still
// be a locked evaluator: concurrent POST /v1/responses:batch calls are
// ordinary traffic, so under -race this test catches any unguarded Add.
// It deliberately runs under -short too. The policy never fires, so every
// response lands and the final intervals must equal the batch algorithm's.
func TestDefaultShardsTenantConcurrentIngest(t *testing.T) {
	const workers, clients, tasksPerClient = 5, 4, 40
	ds, _, err := sim.Binary{Tasks: clients * tasksPerClient, Workers: workers}.Generate(randx.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	policy := pool.Policy{Confidence: 0.9, FireAbove: 0.49, PromoteBelow: 0.2, SpammerDisagreement: 0.99}
	gw, err := gate.New(gate.Options{Tenants: []gate.TenantConfig{
		{Name: "t", Token: "tok", Workers: workers, Policy: &policy},
	}})
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for task := c * tasksPerClient; task < (c+1)*tasksPerClient; task++ {
				var b strings.Builder
				b.WriteString(`{"responses":[`)
				for w := 0; w < workers; w++ {
					if w > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `{"worker":%d,"task":%d,"answer":%d}`, w, task, ds.Response(w, task))
				}
				b.WriteString(`]}`)
				if rec := doReq(t, gw, http.MethodPost, "/v1/responses:batch", "tok", b.String()); rec.Code != http.StatusOK {
					t.Errorf("ingest task %d: status %d body %s", task, rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rec := doReq(t, gw, http.MethodPost, "/v1/pool/review", "tok", ""); rec.Code != http.StatusOK {
			t.Errorf("review: status %d body %s", rec.Code, rec.Body.String())
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	want, err := core.EvaluateWorkers(ds, core.EvalOptions{Confidence: policy.Confidence})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		var wv gate.WorkerView
		rec := doReq(t, gw, http.MethodGet, fmt.Sprintf("/v1/workers/%d", w), "tok", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &wv); err != nil || wv.Responses != ds.Tasks() || wv.Estimate == nil {
			t.Fatalf("worker %d = %s (err %v), want %d responses and an estimate", w, rec.Body.String(), err, ds.Tasks())
		}
		if wv.Estimate.Lo != want[w].Interval.Lo || wv.Estimate.Hi != want[w].Interval.Hi {
			t.Errorf("worker %d: interval [%v, %v], batch [%v, %v]", w, wv.Estimate.Lo, wv.Estimate.Hi, want[w].Interval.Lo, want[w].Interval.Hi)
		}
	}
}
