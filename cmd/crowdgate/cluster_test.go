package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/store"
)

// serveClusterWorker runs an empty dist worker on a loopback TCP listener
// and returns it with its address.
func serveClusterWorker(t *testing.T, crowdSize int, name string) (*dist.Worker, string) {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerOptions{Workers: crowdSize, Shards: 2, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(l)
	t.Cleanup(func() { w.Close() })
	return w, l.Addr().String()
}

// serveTenants builds the tenants on one registry and serves them the way
// run does; the heads are closed at cleanup unless the test closes them.
func serveTenants(t *testing.T, reg *obs.Registry, specs ...tenantSpec) (*httptest.Server, []*clusterHead) {
	t.Helper()
	var tcs []gate.TenantConfig
	var heads []*clusterHead
	for _, ts := range specs {
		tc, head, err := buildTenant(ts, reg)
		if err != nil {
			t.Fatal(err)
		}
		tcs = append(tcs, tc)
		heads = append(heads, head)
	}
	gw, err := gate.New(gate.Options{Tenants: tcs, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(gw, reg, nil, false))
	t.Cleanup(srv.Close)
	return srv, heads
}

// call sends one request with the tenant's bearer token and returns the
// status and body.
func call(t *testing.T, method, url, token string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// scrape reads the /metrics exposition.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	status, body := call(t, http.MethodGet, srv.URL+"/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	return string(body)
}

// answerFixture is a 5-worker crowd over the given tasks. Workers err
// on a deterministic 10–30% of the tasks, so every interval is wide enough
// at this size that a review neither promotes nor fires anyone.
func answerFixture(crowdSize, tasks int) []gate.ResponseRec {
	var recs []gate.ResponseRec
	for task := 0; task < tasks; task++ {
		truth := 1 + task%2
		for w := 0; w < crowdSize; w++ {
			answer := truth
			if (w*7+task*13)%10 < 1+w%3 {
				answer = 3 - truth
			}
			recs = append(recs, gate.ResponseRec{Worker: w, Task: task, Answer: answer})
		}
	}
	return recs
}

// TestClusterTenantColdRestart runs a cluster tenant with "wal" through
// the gateway over two TCP workers: ingest and review through /v1, the
// tenant-labeled cluster, store and pool series on /metrics, then a
// shutdown that leaves a decodable final snapshot per slice. A second
// gateway over two fresh, empty workers on the same "wal" rebuilds them
// from the slice store and serves a byte-identical GET /v1/workers.
func TestClusterTenantColdRestart(t *testing.T) {
	const crowdSize, tasks, token = 5, 40, "tok"
	_, a := serveClusterWorker(t, crowdSize, "replica-a")
	_, b := serveClusterWorker(t, crowdSize, "replica-b")
	spec := tenantSpec{Name: "acme", Token: token, Workers: crowdSize, Cluster: a + "," + b, WAL: t.TempDir()}
	reg := newRegistry()
	srv, heads := serveTenants(t, reg, spec)

	recs := answerFixture(crowdSize, tasks)
	status, body := call(t, http.MethodPost, srv.URL+"/v1/responses:batch", token, gate.IngestRequest{Responses: recs})
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
	var ingested gate.IngestResult
	if err := json.Unmarshal(body, &ingested); err != nil || ingested.Ingested != len(recs) {
		t.Fatalf("ingest: %s (err %v), want %d ingested", body, err, len(recs))
	}
	status, body = call(t, http.MethodPost, srv.URL+"/v1/pool/review", token, nil)
	var review gate.ReviewResult
	if status != http.StatusOK || json.Unmarshal(body, &review) != nil || len(review.Decisions) != crowdSize {
		t.Fatalf("review: status %d: %s, want %d decisions", status, body, crowdSize)
	}
	// The head journals responses, not lifecycle state: a restart puts
	// every worker back on probation. The fixture keeps the review from
	// moving anyone, so the bodies below compare statistics only.
	for _, d := range review.Decisions {
		if d.State != "probation" {
			t.Fatalf("review moved worker %d to %s; the fixture must leave every worker on probation", d.Worker, d.State)
		}
	}
	status, before := call(t, http.MethodGet, srv.URL+"/v1/workers", token, nil)
	if status != http.StatusOK || !bytes.Contains(before, []byte(`"estimate":{`)) {
		t.Fatalf("GET /v1/workers: status %d: %s, want estimates", status, before)
	}

	exposition := scrape(t, srv)
	for _, want := range []string{
		`dist_rpc_seconds_count{msg="ingest",tenant="acme"}`,
		`monitor_replica_state{replica="0",slice="0",tenant="acme"} 0`,
		`monitor_replica_state{replica="1",slice="0",tenant="acme"} 0`,
		`monitor_slice_degraded{slice="0",tenant="acme"} 0`,
		`pool_workers{state="probation",tenant="acme"} 5`,
		`store_fsync_seconds_count{tenant="acme"}`,
		`pool_reviews_total{tenant="acme"} 1`,
		"process_uptime_seconds",
		`http_request_seconds_count{path="/v1/workers"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Shut down: drain the server, then the final checkpoint and close.
	srv.Close()
	if err := heads[0].close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.OSFS{}, filepath.Join(spec.WAL, "slice-000"), store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := st.Snapshots.Latest()
	if err != nil || !ok {
		t.Fatalf("final slice snapshot missing (ok %v, err %v)", ok, err)
	}
	if _, err := dist.DecodeCompact(snap.Payload); err != nil {
		t.Fatalf("final slice snapshot invalid: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, c := serveClusterWorker(t, crowdSize, "replica-c")
	_, d := serveClusterWorker(t, crowdSize, "replica-d")
	spec.Cluster = c + "," + d
	srv2, heads2 := serveTenants(t, newRegistry(), spec)
	defer heads2[0].close()
	status, after := call(t, http.MethodGet, srv2.URL+"/v1/workers", token, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/workers after restart: status %d: %s", status, after)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("GET /v1/workers after a cold restart differs:\n got %s\nwant %s", after, before)
	}
}

// TestClusterTenantsLabelMetrics: two cluster tenants instrument one
// registry. Every series carries its tenant, so tenant b's degraded slice
// shows as b's alone instead of whichever tenant registered last.
func TestClusterTenantsLabelMetrics(t *testing.T) {
	const crowdSize, token = 5, "tok-"
	_, addrA := serveClusterWorker(t, crowdSize, "a")
	workerB, addrB := serveClusterWorker(t, crowdSize, "b")
	reg := newRegistry()
	srv, heads := serveTenants(t, reg,
		tenantSpec{Name: "a", Token: token + "a", Workers: crowdSize, Cluster: addrA},
		tenantSpec{Name: "b", Token: token + "b", Workers: crowdSize, Cluster: addrB})
	for _, h := range heads {
		defer h.close()
	}
	for _, name := range []string{"a", "b"} {
		recs := answerFixture(crowdSize, 40)
		if status, body := call(t, http.MethodPost, srv.URL+"/v1/responses:batch", token+name, gate.IngestRequest{Responses: recs}); status != http.StatusOK {
			t.Fatalf("tenant %s ingest: status %d: %s", name, status, body)
		}
		if status, body := call(t, http.MethodGet, srv.URL+"/v1/workers", token+name, nil); status != http.StatusOK {
			t.Fatalf("tenant %s GET /v1/workers: status %d: %s", name, status, body)
		}
	}

	// Tenant b loses its only replica; its reads (workers past
	// MinResponses, so each one pulls) fall back to the last validated
	// pull and its slice turns degraded.
	workerB.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		call(t, http.MethodGet, srv.URL+"/v1/workers", token+"b", nil)
		exposition := scrape(t, srv)
		if strings.Contains(exposition, `monitor_slice_degraded{slice="0",tenant="b"} 1`) {
			for _, want := range []string{
				`monitor_slice_degraded{slice="0",tenant="a"} 0`,
				`monitor_replica_state{replica="0",slice="0",tenant="a"} 0`,
				`monitor_replica_state{replica="0",slice="0",tenant="b"} 2`,
				`pool_workers{state="probation",tenant="a"} 5`,
				`pool_workers{state="probation",tenant="b"} 5`,
			} {
				if !strings.Contains(exposition, want) {
					t.Errorf("/metrics lacks %q", want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant b's slice never showed degraded:\n%s", exposition)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterTenantDialFailure: a cluster tenant whose replica cannot be
// dialed fails the build with an error naming the tenant, before it opens
// any slice store.
func TestClusterTenantDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	wal := filepath.Join(t.TempDir(), "wal")
	_, _, err = buildTenant(tenantSpec{Name: "gone", Token: "t", Workers: 5, Cluster: addr, WAL: wal}, newRegistry())
	if err == nil || !strings.Contains(err.Error(), `tenant "gone"`) {
		t.Fatalf("dial failure: err = %v, want an error naming the tenant", err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("a tenant that never reached its cluster created %s (stat err %v)", wal, err)
	}
}
