package dist

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/eval"
)

// localReference ingests the stream into a single-process Incremental.
func localReference(t *testing.T, workers int, subs []submission) *core.Incremental {
	t.Helper()
	inc, err := core.NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := inc.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// slicesOf puts each connection in a task slice of its own, unreplicated.
func slicesOf(conns ...*Conn) [][]ReplicaSpec {
	groups := make([][]ReplicaSpec, len(conns))
	for i, conn := range conns {
		groups[i] = []ReplicaSpec{{Conn: conn}}
	}
	return groups
}

// newInProcessCluster builds nodes workers served in-process, one per task
// slice, and a coordinator over them, with cleanup registered.
func newInProcessCluster(t *testing.T, workers, nodes, shards int) *Coordinator {
	t.Helper()
	coord, _ := newReplicatedCluster(t, workers, nodes, 1, shards)
	return coord
}

// ingestConcurrently splits the stream over goroutines that each push
// batches through the coordinator.
func ingestConcurrently(t *testing.T, coord *Coordinator, subs []submission, goroutines, batchSize int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var batch []Response
			flush := func() {
				if len(batch) > 0 && errs[g] == nil {
					errs[g] = coord.Ingest(batch)
					batch = batch[:0]
				}
			}
			for i := g; i < len(subs); i += goroutines {
				s := subs[i]
				batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
				if len(batch) >= batchSize {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestInProcessClusterExact: the acceptance contract over the in-process
// transport — concurrent ingest through a 3-node cluster, then EvaluateAll
// bit-identical to the single-process evaluator.
func TestInProcessClusterExact(t *testing.T) {
	const workers, tasks = 9, 300
	subs := testStream(t, workers, tasks, 41)
	coord := newInProcessCluster(t, workers, 3, 2)
	ingestConcurrently(t, coord, subs, 6, 17)

	local := localReference(t, workers, subs)
	if total, err := coord.Responses(); err != nil || total != local.Responses() {
		t.Fatalf("cluster holds %d responses (err %v), want %d", total, err, local.Responses())
	}
	for _, conf := range []float64{0.5, 0.9, 0.95} {
		opts := core.EvalOptions{Confidence: conf}
		want, err := local.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		compareEstimates(t, "in-process cluster", got, want)
	}
	// Subset and single-worker paths agree too.
	got, err := coord.EvaluateSubset([]int{3, 0, 7}, core.EvalOptions{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.EvaluateSubset([]int{3, 0, 7}, core.EvalOptions{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "subset", got, want)
}

// TestTCPLoopbackExact is the acceptance criterion: a coordinator and
// several crowdd-style workers on real TCP loopback sockets, concurrent
// ingest, and estimates ==-equal to the single-process Incremental. It
// runs in short mode so the CI -race job covers it.
func TestTCPLoopbackExact(t *testing.T) {
	const workers, tasks, nodes = 8, 260, 3
	subs := testStream(t, workers, tasks, 53)

	conns := make([]*Conn, nodes)
	for i := 0; i < nodes; i++ {
		w, err := NewWorker(WorkerOptions{Workers: workers, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- w.Serve(l) }()
		t.Cleanup(func() {
			w.Close()
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
		if conns[i], err = DialTCP(l.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := NewCluster(workers, slicesOf(conns...), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	ingestConcurrently(t, coord, subs, 8, 23)

	local := localReference(t, workers, subs)
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := local.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "tcp loopback cluster", got, want)

	// Streamed follow-up: more responses land, estimates still track the
	// local evaluator exactly.
	extra := testStream(t, workers, tasks, 54)
	var fresh []submission
	for _, s := range extra {
		if s.t >= tasks/2 {
			continue // keep it quick: only half the task space again
		}
		fresh = append(fresh, submission{s.w, s.t + tasks, s.r})
	}
	for _, s := range fresh {
		if err := local.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	ingestConcurrently(t, coord, fresh, 4, 11)
	want, err = local.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err = coord.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "tcp loopback after second wave", got, want)
}

// TestDistributedSweepExact: a sweep partitioned over a cluster returns a
// Result byte-identical to the local run.
func TestDistributedSweepExact(t *testing.T) {
	spec := eval.SweepSpec{Kernel: eval.SweepCoverage, Workers: 5, Tasks: 60, Replicates: 10, Seed: 77}
	coord := newInProcessCluster(t, 5, 3, 1)
	want, err := eval.RunSweep(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.RunSweep(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed sweep differs from local run:\n got %+v\nwant %+v", got, want)
	}
	// More nodes than replicates: empty slices are skipped, result unchanged.
	spec.Replicates = 2
	want, err = eval.RunSweep(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err = coord.RunSweep(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with more nodes than replicates differs from local run")
	}
}

// TestNodeRoutingIndependentOfShardStriping: the coordinator's node hash
// must not be the sharded evaluator's stripe hash, or every task a node
// receives would collapse onto gcd(nodes, shards) of its local stripes
// and ingestion would serialize on one shard lock. Reimplement both
// mixers and require each node's task set to cover every local stripe.
func TestNodeRoutingIndependentOfShardStriping(t *testing.T) {
	stripeOf := func(t int, shards int) int { // ShardedIncremental.shardOf
		h := uint64(t)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return int(h % uint64(shards))
	}
	coord := newInProcessCluster(t, 3, 2, 1)
	for _, shards := range []int{2, 4} {
		hit := make([][]bool, 2)
		for ni := range hit {
			hit[ni] = make([]bool, shards)
		}
		for task := 0; task < 4096; task++ {
			hit[coord.sliceOf(task)][stripeOf(task, shards)] = true
		}
		for ni := range hit {
			for si, ok := range hit[ni] {
				if !ok {
					t.Fatalf("with 2 nodes and %d shards, node %d never receives stripe %d — node and stripe hashes are correlated", shards, ni, si)
				}
			}
		}
	}
}

// TestHandshakeRejectsMismatchedCrowd: a node configured for a different
// crowd size refuses the coordinator.
func TestHandshakeRejectsMismatchedCrowd(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Workers: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(7, slicesOf(conn), DefaultPolicy()); err == nil {
		t.Fatal("coordinator accepted a node with a different crowd size")
	} else if !strings.Contains(err.Error(), "crowd workers") {
		t.Fatalf("unhelpful handshake error: %v", err)
	}
}

// TestRemoteAddErrors: per-response rejections surface through the wire
// with the worker's message, and the connection survives them.
func TestRemoteAddErrors(t *testing.T) {
	coord := newInProcessCluster(t, 4, 2, 1)
	if err := coord.Add(0, 3, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	err := coord.Add(0, 3, crowd.Yes)
	if err == nil || !strings.Contains(err.Error(), "already answered") {
		t.Fatalf("duplicate response error not surfaced: %v", err)
	}
	if err := coord.Add(9, 1, crowd.Yes); err == nil {
		t.Fatal("out-of-range crowd worker accepted")
	}
	if err := coord.Add(1, -1, crowd.Yes); err == nil {
		t.Fatal("negative task accepted")
	}
	// The cluster still works after rejected requests.
	if err := coord.Add(1, 4, crowd.No); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerCloseDrainsCleanly: Close racing a stream of requests never
// yields a half-written frame — the coordinator sees either completed
// round-trips or clean transport errors, and no codec error ever
// surfaces.
func TestWorkerCloseDrainsCleanly(t *testing.T) {
	for round := 0; round < 10; round++ {
		w, err := NewWorker(WorkerOptions{Workers: 4, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := w.SelfConn()
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCluster(4, slicesOf(conn), DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			for task := 0; ; task++ {
				if err := coord.Add(task%4, round*10000+task, crowd.Yes); err != nil {
					done <- err
					return
				}
			}
		}()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		err = <-done
		if err == nil {
			t.Fatal("ingestion survived worker shutdown")
		}
		if errors.Is(err, ErrCodec) {
			t.Fatalf("shutdown surfaced a codec error (half-written frame?): %v", err)
		}
		coord.Close()
	}
}

// TestWorkerCloseUnblocksCoordinator: closing a worker breaks in-flight
// connections instead of hanging them, and new requests fail cleanly.
func TestWorkerCloseUnblocksCoordinator(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Workers: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(4, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Add(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Add(0, 2, 1); err == nil {
		t.Fatal("request to a closed worker succeeded")
	}
	if _, err := w.SelfConn(); err == nil {
		t.Fatal("SelfConn on a closed worker succeeded")
	}
}
