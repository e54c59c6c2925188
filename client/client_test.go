package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"crowdassess/client"
	"crowdassess/internal/randx"
)

// flakyServer answers the first n requests with the given status (and
// optional Retry-After), then succeeds with the body.
func flakyServer(failures int, status int, retryAfter string, okBody string) (*httptest.Server, *atomic.Int64) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		if int(n) <= failures {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"error":{"code":"rate_limited","message":"slow down"}}`))
			return
		}
		w.Write([]byte(okBody))
	}))
	return srv, &attempts
}

func TestIngestRetriesAfter429HonoringRetryAfter(t *testing.T) {
	srv, attempts := flakyServer(1, http.StatusTooManyRequests, "1", `{"ingested":1,"rejected":0}`)
	defer srv.Close()

	c := client.New(srv.URL, "tok")
	start := time.Now()
	res, err := c.IngestBatch(context.Background(), []client.Response{{Worker: 0, Task: 0, Answer: 1}})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	if res.Ingested != 1 {
		t.Errorf("ingested %d, want 1", res.Ingested)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("%d attempts, want 2 (one 429, one success)", got)
	}
	// The client must wait at least the advertised Retry-After (jitter
	// only pushes the delay upward, into [ra, 1.5*ra]).
	if elapsed < time.Second {
		t.Errorf("retried after %v, before the 1s Retry-After elapsed", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("retried after %v, far beyond the 1.5s jitter ceiling", elapsed)
	}
}

func TestIngestNeverRetriesUpstreamErrors(t *testing.T) {
	srv, attempts := flakyServer(10, http.StatusBadGateway, "", `{}`)
	defer srv.Close()

	c := client.New(srv.URL, "tok").WithRetry(client.RetryPolicy{Retries: 3, Backoff: time.Millisecond})
	_, err := c.IngestBatch(context.Background(), []client.Response{{Worker: 0, Task: 0, Answer: 1}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError with status 502", err)
	}
	// A 502 on ingest is ambiguous — some of the batch may be recorded —
	// so the client must fail immediately rather than re-send.
	if got := attempts.Load(); got != 1 {
		t.Errorf("%d attempts, want 1 (no retry on non-idempotent upstream failure)", got)
	}
}

func TestIdempotentReadRetriesUpstreamErrors(t *testing.T) {
	srv, attempts := flakyServer(2, http.StatusBadGateway, "",
		`{"worker":0,"state":"probation","responses":0,"estimate":null}`)
	defer srv.Close()

	c := client.New(srv.URL, "tok").WithRetry(client.RetryPolicy{Retries: 3, Backoff: time.Millisecond})
	w, err := c.WorkerInfo(context.Background(), 0)
	if err != nil {
		t.Fatalf("WorkerInfo: %v", err)
	}
	if w.State != "probation" {
		t.Errorf("state %q, want probation", w.State)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (two 502s retried, then success)", got)
	}
}

func TestRetriesExhaustedSurfacesLastError(t *testing.T) {
	srv, attempts := flakyServer(100, http.StatusTooManyRequests, "", `{}`)
	defer srv.Close()

	c := client.New(srv.URL, "tok").WithRetry(client.RetryPolicy{Retries: 2, Backoff: time.Millisecond})
	_, err := c.IngestBatch(context.Background(), []client.Response{{Worker: 0, Task: 0, Answer: 1}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("err = %v, want the final rate_limited APIError", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (initial + 2 retries)", got)
	}
}

func TestContextCancelsRetryWait(t *testing.T) {
	srv, _ := flakyServer(100, http.StatusTooManyRequests, "5", `{}`)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := client.New(srv.URL, "tok")
	start := time.Now()
	_, err := c.IngestBatch(ctx, []client.Response{{Worker: 0, Task: 0, Answer: 1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The 5s Retry-After must not pin the caller past its context.
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("cancellation took %v; the retry sleep ignored the context", waited)
	}
}

func TestBatcherFlushesAtSizeAndOnDemand(t *testing.T) {
	var batches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		batches.Add(1)
		w.Write([]byte(`{"ingested":2,"rejected":0}`))
	}))
	defer srv.Close()

	c := client.New(srv.URL, "tok")
	b := c.NewBatcher(2)
	ctx := context.Background()
	for task := 0; task < 4; task++ {
		if err := b.Add(ctx, client.Response{Worker: 0, Task: task, Answer: 1}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := batches.Load(); got != 2 {
		t.Errorf("%d batches shipped, want 2 (size-triggered flushes; final Flush empty)", got)
	}
	if tot := b.Totals(); tot.Ingested != 4 {
		t.Errorf("totals %+v, want 4 ingested", tot)
	}
}

// TestBatcherNeverExceedsSizeAfterFailedFlush fails the first request with
// a 429 and checks that the responses it left buffered go out in batches
// of at most the batcher's size, each response delivered once and in order.
func TestBatcherNeverExceedsSizeAfterFailedFlush(t *testing.T) {
	var requests atomic.Int64
	var delivered []client.Response
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Responses []client.Response }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		if n := len(req.Responses); n > 2 {
			t.Errorf("request carried %d responses, batch size is 2", n)
		}
		if requests.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"rate_limited","message":"slow down"}}`))
			return
		}
		delivered = append(delivered, req.Responses...)
		fmt.Fprintf(w, `{"ingested":%d,"rejected":0}`, len(req.Responses))
	}))
	defer srv.Close()

	b := client.New(srv.URL, "tok").WithRetry(client.RetryPolicy{}).NewBatcher(2)
	ctx := context.Background()
	var want []client.Response
	for task := 0; task < 5; task++ {
		r := client.Response{Worker: 0, Task: task, Answer: 1}
		want = append(want, r)
		err := b.Add(ctx, r)
		if task == 1 && err == nil {
			t.Fatal("Add: first flush succeeded, want the 429")
		}
		if task != 1 && err != nil {
			t.Fatalf("Add task %d: %v", task, err)
		}
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := requests.Load(); got != 4 {
		t.Errorf("%d requests, want 4 (the 429, two full batches, the final Flush)", got)
	}
	if !reflect.DeepEqual(delivered, want) {
		t.Errorf("delivered %v, want %v", delivered, want)
	}
	if tot := b.Totals(); tot.Ingested != 5 {
		t.Errorf("totals %+v, want 5 ingested", tot)
	}
}

// TestIngestBatchBodyMatchesJSON checks the ingest body IngestBatch sends
// against json.Marshal of the request it encodes, for random batches over
// negative, zero and extreme integers, and for nil and empty batches.
func TestIngestBatchBodyMatchesJSON(t *testing.T) {
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.Write([]byte(`{"ingested":0,"rejected":0}`))
	}))
	defer srv.Close()
	c := client.New(srv.URL, "tok").WithRetry(client.RetryPolicy{})
	rng := randx.NewSource(7)
	edge := []int{0, 1, -1, 2, 10, -10, 1 << 31, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	value := func() int {
		if rng.Bernoulli(0.5) {
			return edge[rng.Intn(len(edge))]
		}
		v := rng.Intn(1 << 62)
		if rng.Bernoulli(0.5) {
			v = -v
		}
		return v
	}
	batches := [][]client.Response{nil, {}}
	for i := 0; i < 50; i++ {
		batch := make([]client.Response, rng.Intn(20))
		for j := range batch {
			batch[j] = client.Response{Worker: value(), Task: value(), Answer: value()}
		}
		batches = append(batches, batch)
	}
	for _, batch := range batches {
		want, err := json.Marshal(struct {
			Responses []client.Response `json:"responses"`
		}{batch})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.IngestBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("body %s, json.Marshal %s", got, want)
		}
	}
}
