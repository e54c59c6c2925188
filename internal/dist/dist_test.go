package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
)

// batchReference holds a response stream and evaluates it with the batch
// algorithm, which shares no code with the streaming path the workers and
// the coordinator run: the independent reference every cluster path is
// pinned against.
type batchReference struct {
	tb      testing.TB
	workers int
	subs    []submission
}

// localReference returns the batch reference over the stream.
func localReference(tb testing.TB, workers int, subs []submission) *batchReference {
	tb.Helper()
	return &batchReference{tb: tb, workers: workers, subs: append([]submission(nil), subs...)}
}

// Add appends one more response to the reference stream.
func (r *batchReference) Add(w, t int, resp crowd.Response) error {
	r.subs = append(r.subs, submission{w, t, resp})
	return nil
}

// Responses returns the number of responses in the stream.
func (r *batchReference) Responses() int { return len(r.subs) }

// Tasks returns the highest task index in the stream plus one.
func (r *batchReference) Tasks() int {
	tasks := 0
	for _, s := range r.subs {
		tasks = max(tasks, s.t+1)
	}
	return tasks
}

// Snapshot materializes the stream as a Dataset.
func (r *batchReference) Snapshot() (*crowd.Dataset, error) {
	ds, err := crowd.NewDataset(r.workers, r.Tasks(), 2)
	if err != nil {
		return nil, err
	}
	for _, s := range r.subs {
		if err := ds.SetResponse(s.w, s.t, s.r); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// dataset is Snapshot for callers that cannot proceed without it.
func (r *batchReference) dataset() *crowd.Dataset {
	r.tb.Helper()
	ds, err := r.Snapshot()
	if err != nil {
		r.tb.Fatal(err)
	}
	return ds
}

// EvaluateAll runs the batch algorithm over the stream.
func (r *batchReference) EvaluateAll(opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	return core.EvaluateWorkers(r.dataset(), opts)
}

// EvaluateSubset picks the listed workers out of EvaluateAll.
func (r *batchReference) EvaluateSubset(workers []int, opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	all, err := r.EvaluateAll(opts)
	if err != nil {
		return nil, err
	}
	out := make([]core.WorkerEstimate, len(workers))
	for i, w := range workers {
		out[i] = all[w]
	}
	return out, nil
}

// MajorityDisagreement runs the batch spammer screen over the stream.
func (r *batchReference) MajorityDisagreement() []float64 {
	return r.dataset().MajorityDisagreement()
}

// streamingOf ingests a stream into a fresh one-shard evaluator, for tests
// of the state it exports and checkpoints.
func streamingOf(tb testing.TB, workers int, subs []submission) *core.ShardedIncremental {
	tb.Helper()
	inc, err := core.NewShardedIncremental(workers, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range subs {
		if err := inc.Add(s.w, s.t, s.r); err != nil {
			tb.Fatal(err)
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
// bit-identical to the batch algorithm.
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
// ingest, and estimates ==-equal to the batch algorithm. It
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
	// batch reference exactly.
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

// TestWorkerRejectsRetiredMessages: the message types protocol 7 retired
// (0x07/0x08, the replicate sweep, and 0x0a, the response-total pull) are
// unknown to a worker. Each gets a msgError naming its type, and the
// connection keeps serving. The 0x07 body is the sweep request that used
// to crash a worker: kernel "width", 3 workers, 2^52 tasks, one replicate.
func TestWorkerRejectsRetiredMessages(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Workers: 3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	conn, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := conn.roundTrip(msgHello, encodeHello(helloMsg{Version: ProtocolVersion, Workers: 3})); err != nil {
		t.Fatal(err)
	}

	poison := appendUvarint(nil, uint64(len("width")))
	poison = append(poison, "width"...)
	poison = appendUvarint(poison, 3)     // workers
	poison = appendUvarint(poison, 1<<52) // tasks
	poison = appendU64le(poison, 0)       // density
	poison = appendUvarint(poison, 1)     // replicates
	poison = appendU64le(poison, 0)       // seed
	poison = appendUvarint(poison, 0)     // lo
	poison = appendUvarint(poison, 1)     // hi
	poison = append(poison, 0)            // serial
	if len(poison) != 35 {
		t.Fatalf("poison body is %d bytes, want 35", len(poison))
	}
	for _, req := range []struct {
		msgType byte
		body    []byte
	}{{0x07, poison}, {0x08, nil}, {0x0a, nil}} {
		_, _, err := conn.roundTrip(req.msgType, req.body)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("retired message 0x%02x: got %v, want a worker error", req.msgType, err)
		}
		if want := fmt.Sprintf("unknown message type 0x%02x", req.msgType); !strings.Contains(remote.Msg, want) {
			t.Fatalf("retired message 0x%02x: error %q does not say %q", req.msgType, remote.Msg, want)
		}
	}

	replyType, reply, err := conn.roundTrip(msgIngest, encodeIngest([]responseRec{{Worker: 0, Task: 1, Answer: int(crowd.Yes)}}))
	if err != nil || replyType != msgIngestOK {
		t.Fatalf("ingest after retired messages: type 0x%02x, %v", replyType, err)
	}
	if total, err := decodeTotal(reply); err != nil || total != 1 {
		t.Fatalf("ingest total = %d, %v; want 1", total, err)
	}
	replyType, reply, err = conn.roundTrip(msgPullCounts, nil)
	if err != nil || replyType != msgCounts {
		t.Fatalf("counts pull after retired messages: type 0x%02x, %v", replyType, err)
	}
	// Tasks is the horizon: task index 1 plus one.
	if counts, err := decodeCounts(reply); err != nil || counts != (countsMsg{Tasks: 2, Responses: 1}) {
		t.Fatalf("counts = %+v, %v; want a 2-task horizon and 1 response", counts, err)
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
