package crowdassess_test

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"crowdassess"
	"crowdassess/internal/dist"
)

// TestSelfHealingClusterFacade drives the self-healing surface end to end
// through the public API: build a dialer-equipped replicated cluster, kill
// a replica mid-stream, and watch the heartbeat monitor detect the death
// and re-seed an empty replacement from the survivor — while ingestion
// never fails and final intervals stay bit-identical to a local evaluator.
func TestSelfHealingClusterFacade(t *testing.T) {
	const workers, tasks = 7, 160
	ds, _ := buildCrowd(t, 61, workers, tasks, 0.8)

	newNode := func() *crowdassess.DistWorker {
		t.Helper()
		w, err := crowdassess.NewDistWorker(crowdassess.DistWorkerOptions{Workers: workers, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w
	}

	// One slice, two replicas. The dialers resolve through `current`, the
	// way a real address outlives the process behind it.
	var mu sync.Mutex
	current := []*crowdassess.DistWorker{newNode(), newNode()}
	dialTo := func(ri int) func() (*crowdassess.DistConn, error) {
		return func() (*crowdassess.DistConn, error) {
			mu.Lock()
			defer mu.Unlock()
			return current[ri].SelfConn()
		}
	}
	specs := make([]crowdassess.DistReplicaSpec, 2)
	for ri := range specs {
		conn, err := current[ri].SelfConn()
		if err != nil {
			t.Fatal(err)
		}
		specs[ri] = crowdassess.DistReplicaSpec{Conn: conn, Dial: dialTo(ri)}
	}

	policy := crowdassess.DefaultDistPolicy()
	policy.RPCTimeout = 2 * time.Second
	coord, err := crowdassess.NewCluster(workers, [][]crowdassess.DistReplicaSpec{specs}, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var events []string
	var evMu sync.Mutex
	coord.StartMonitor(crowdassess.ClusterMonitorOptions{
		Interval:     20 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    2,
		ReseedEvery:  40 * time.Millisecond,
		OnEvent: func(e crowdassess.ClusterEvent) {
			evMu.Lock()
			events = append(events, e.String())
			evMu.Unlock()
		},
	})

	local, err := crowdassess.NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) {
		t.Helper()
		var batch []crowdassess.DistResponse
		for task := from; task < to; task++ {
			for w := 0; w < workers; w++ {
				if !ds.Attempted(w, task) {
					continue
				}
				batch = append(batch, crowdassess.DistResponse{Worker: w, Task: task, Answer: ds.Response(w, task)})
				if err := local.Add(w, task, ds.Response(w, task)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := coord.Ingest(batch); err != nil {
			t.Fatalf("ingest must survive the replica death: %v", err)
		}
	}

	ingest(0, tasks/2)

	// Kill replica 0 and stand a fresh empty node up at its "address"; the
	// monitor must notice and re-seed it from the survivor.
	mu.Lock()
	dead := current[0]
	current[0] = newNode()
	mu.Unlock()
	dead.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		view := coord.Membership()
		if len(view) != 2 {
			t.Fatalf("membership has %d rows, want 2", len(view))
		}
		if view[0].State == "alive" && view[0].Reseeds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			evMu.Lock()
			t.Fatalf("replica never re-seeded; membership %+v, events %q", view, events)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ingest(tasks/2, tasks)

	opts := crowdassess.Options{Confidence: 0.9}
	want, err := local.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("worker %d error mismatch: %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		if math.Float64bits(got[i].Interval.Lo) != math.Float64bits(want[i].Interval.Lo) ||
			math.Float64bits(got[i].Interval.Hi) != math.Float64bits(want[i].Interval.Hi) {
			t.Fatalf("worker %d: healed-cluster interval differs from local", i)
		}
	}
	if degraded := coord.Degraded(); len(degraded) != 0 {
		t.Fatalf("healthy cluster reports degraded slices %v", degraded)
	}
	evMu.Lock()
	defer evMu.Unlock()
	var sawDown, sawReseed bool
	for _, e := range events {
		switch {
		case e == "down slice=0 replica=0" || e == "suspect slice=0 replica=0":
			sawDown = true
		}
		if len(e) >= 6 && e[:6] == "reseed" {
			sawReseed = true
		}
	}
	if !sawDown || !sawReseed {
		t.Fatalf("monitor events missed the lifecycle (down=%v reseed=%v): %q", sawDown, sawReseed, events)
	}
}

// TestChaosFacade smoke-tests the fault-injection driver the facade's
// chaos tests build on: a seeded Chaos over pipe-backed FaultConns produces
// a deterministic, replayable strike log.
func TestChaosFacade(t *testing.T) {
	strikes := func(seed uint64) []string {
		ch := dist.NewChaos(seed)
		a1, a2 := net.Pipe()
		defer a1.Close()
		defer a2.Close()
		ch.Wrap(a1)
		ch.Wrap(a2)
		for i := 0; i < 5; i++ {
			ch.Strike()
		}
		ch.HealAll()
		return ch.Log()
	}
	first, again := strikes(42), strikes(42)
	if len(first) != 5 {
		t.Fatalf("logged %d strikes, want 5", len(first))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("strike %d not deterministic: %q vs %q", i, first[i], again[i])
		}
	}
	other := strikes(43)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical strike schedule")
	}
}
