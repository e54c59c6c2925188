package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdassess/internal/dist"
	"crowdassess/internal/pool"
	"crowdassess/internal/store"
)

func TestParseGroups(t *testing.T) {
	got, err := parseGroups(" a:1 ,b:2; c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:2"}, {"c:3"}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("groups = %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("groups = %v, want %v", got, want)
			}
		}
	}
	for _, bad := range []string{"", "a,;b", "a;;b", "a,,b", " ; "} {
		if _, err := parseGroups(bad); err == nil {
			t.Errorf("parseGroups(%q) accepted a malformed spec", bad)
		}
	}
}

// serveClusterWorker runs a real worker on a loopback TCP listener for the
// coordinator-mode tests.
func serveClusterWorker(t *testing.T, crowdSize int, name string) string {
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
	return l.Addr().String()
}

// TestCoordinatorMux drives the cluster head's HTTP surface against a real
// 1-slice × 2-replica TCP cluster: ingest, stats with membership, health,
// evaluation.
func TestCoordinatorMux(t *testing.T) {
	const crowdSize = 5
	a := serveClusterWorker(t, crowdSize, "replica-a")
	b := serveClusterWorker(t, crowdSize, "replica-b")

	coord, err := buildCluster(crowdSize, [][]string{{a, b}}, dist.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	reg := newRegistry()
	coord.Instrument(reg)
	ce := dist.NewClusterEvaluator(coord, 0)
	mgr, err := pool.NewManagerWith(ce, pool.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Instrument(reg)
	srv := httptest.NewServer(newCoordinatorMux(coord, mgr, ce, reg, false))
	defer srv.Close()

	var recs []ingestRec
	for task := 0; task < 30; task++ {
		for w := 0; w < crowdSize; w++ {
			recs = append(recs, ingestRec{Worker: w, Task: task, Answer: 1 + crowdassessResponse(w, task)})
		}
	}
	body, _ := json.Marshal(recs)
	resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ingested struct {
		Ingested int `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ingested); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ingested.Ingested != len(recs) {
		t.Fatalf("POST /ingest: status %d ingested %d, want 200 / %d", resp.StatusCode, ingested.Ingested, len(recs))
	}

	// Malformed JSON is the client's fault, not the cluster's.
	resp, err = http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /ingest with garbage: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Workers    int          `json:"workers"`
		Slices     int          `json:"slices"`
		Responses  int          `json:"responses"`
		Membership []memberView `json:"membership"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Workers != crowdSize || stats.Slices != 1 || stats.Responses != len(recs) {
		t.Fatalf("/statsz = %+v, want workers=%d slices=1 responses=%d", stats, crowdSize, len(recs))
	}
	if len(stats.Membership) != 2 {
		t.Fatalf("/statsz membership has %d rows, want 2", len(stats.Membership))
	}
	for _, m := range stats.Membership {
		if m.State != "alive" {
			t.Errorf("replica %d state %q, want alive", m.Replica, m.State)
		}
		if m.LastBeatAgeMS < 0 {
			t.Errorf("replica %d heartbeat age %dms is negative", m.Replica, m.LastBeatAgeMS)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("/healthz status %q, want ok", hz.Status)
	}

	// The same mux serves the Prometheus exposition, and the traffic above
	// must already have left its mark: RPC latency samples from the ingest
	// fan-out and a state gauge per replica slot.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text exposition", ct)
	}
	for _, want := range []string{
		`dist_rpc_seconds_count{msg="ingest"}`,
		`monitor_replica_state{replica="0",slice="0"}`,
		`monitor_replica_state{replica="1",slice="0"}`,
		`pool_workers{state="probation"}`,
		"process_uptime_seconds",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/evaluate?confidence=0.9")
	if err != nil {
		t.Fatal(err)
	}
	var eval struct {
		Confidence float64           `json:"confidence"`
		Stale      bool              `json:"stale"`
		Estimates  []json.RawMessage `json:"estimates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eval); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || eval.Confidence != 0.9 || eval.Stale || len(eval.Estimates) != crowdSize {
		t.Fatalf("/evaluate: status %d %+v, want 200, confidence 0.9, fresh, %d estimates", resp.StatusCode, eval, crowdSize)
	}

	// One lifecycle review over the merged statistics: every worker has 30
	// responses (past MinResponses), so every one gets a decision, and the
	// review shows up in the pool counters.
	resp, err = http.Post(srv.URL+"/review", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var review struct {
		Decisions []decisionView `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&review); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(review.Decisions) != crowdSize {
		t.Fatalf("/review: status %d, %d decisions, want 200 with %d", resp.StatusCode, len(review.Decisions), crowdSize)
	}
	if v, ok := reg.CounterValue("pool_reviews_total"); !ok || v != 1 {
		t.Errorf("pool_reviews_total = %d (ok=%v), want 1", v, ok)
	}
}

// TestRunCoordinatorLifecycle runs coordinator-mode main end to end: serve
// the HTTP head, answer health checks, then drain on the done signal and
// leave a final compact snapshot in each slice's store.
func TestRunCoordinatorLifecycle(t *testing.T) {
	const crowdSize = 5
	addr := serveClusterWorker(t, crowdSize, "solo")

	// Reserve a loopback port for the coordinator's HTTP head.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	healthAddr := l.Addr().String()
	l.Close()

	walDir := t.TempDir()
	done := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		runErr <- runCoordinator(addr, crowdSize, healthAddr, dist.DefaultPolicy(),
			dist.MonitorOptions{Interval: 50 * time.Millisecond},
			storageConfig{wal: walDir, fsync: store.FsyncNever, snapEvery: time.Hour}, false, done)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", healthAddr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator health endpoint never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(done)
	if err := <-runErr; err != nil {
		t.Fatalf("runCoordinator: %v", err)
	}
	st, err := store.Open(store.OSFS{}, filepath.Join(walDir, "slice-000"), store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, ok, err := st.Snapshots.Latest()
	if err != nil || !ok {
		t.Fatalf("final slice snapshot missing (ok %v, err %v)", ok, err)
	}
	if _, err := dist.DecodeCompact(snap.Payload); err != nil {
		t.Fatalf("final slice snapshot invalid: %v", err)
	}
}

func TestRunCoordinatorRejectsBadFlags(t *testing.T) {
	if err := runCoordinator("a", 0, ":0", dist.DefaultPolicy(), dist.MonitorOptions{}, storageConfig{}, false, nil); err == nil {
		t.Fatal("missing -workers accepted")
	}
	if err := runCoordinator("a", 5, "", dist.DefaultPolicy(), dist.MonitorOptions{}, storageConfig{}, false, nil); err == nil {
		t.Fatal("missing -health accepted")
	}
	if err := runCoordinator("", 5, ":0", dist.DefaultPolicy(), dist.MonitorOptions{}, storageConfig{}, false, nil); err == nil {
		t.Fatal("empty -coordinate spec accepted")
	}
}
