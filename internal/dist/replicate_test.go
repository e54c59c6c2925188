package dist

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
)

// newReplicatedCluster builds slices×replicas in-process workers and a
// replicated coordinator over them, returning the worker grid so tests can
// kill nodes. workersGrid[si][ri] backs slice si's replica ri.
func newReplicatedCluster(t *testing.T, crowdSize, slices, replicas, shards int) (*Coordinator, [][]*Worker) {
	t.Helper()
	grid := make([][]*Worker, slices)
	groups := make([][]ReplicaSpec, slices)
	for si := 0; si < slices; si++ {
		grid[si] = make([]*Worker, replicas)
		groups[si] = make([]ReplicaSpec, replicas)
		for ri := 0; ri < replicas; ri++ {
			w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			grid[si][ri] = w
			if groups[si][ri].Conn, err = w.SelfConn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord, err := NewCluster(crowdSize, groups, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, grid
}

// freshReplica spins up a new empty worker and hands its connection over.
func freshReplica(t *testing.T, crowdSize, shards int) (*Worker, *Conn) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	return w, conn
}

func requireEvaluateAllEqual(t *testing.T, label string, coord *Coordinator, local *batchReference) {
	t.Helper()
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := local.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(opts)
	if err != nil {
		t.Fatalf("%s: EvaluateAll: %v", label, err)
	}
	compareEstimates(t, label, got, want)
}

// TestReplicatedClusterExact: with every slice owned by two replicas, the
// cluster's estimates, screens and totals still match the batch algorithm
// bit for bit.
func TestReplicatedClusterExact(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 61)
	coord, _ := newReplicatedCluster(t, crowdSize, 3, 2, 2)
	ingestConcurrently(t, coord, subs, 6, 19)
	local := localReference(t, crowdSize, subs)

	if coord.Nodes() != 6 || coord.Slices() != 3 {
		t.Fatalf("cluster shape %d nodes / %d slices, want 6/3", coord.Nodes(), coord.Slices())
	}
	if total, err := coord.Responses(); err != nil || total != local.Responses() {
		t.Fatalf("cluster holds %d responses (err %v), want %d", total, err, local.Responses())
	}
	if tasks, err := coord.Tasks(); err != nil || tasks != local.Tasks() {
		t.Fatalf("cluster spans %d tasks (err %v), want %d", tasks, err, local.Tasks())
	}
	requireEvaluateAllEqual(t, "replicated cluster", coord, local)

	wantDis := local.MajorityDisagreement()
	gotDis, err := coord.MajorityDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	for w := range wantDis {
		if math.Float64bits(wantDis[w]) != math.Float64bits(gotDis[w]) {
			t.Fatalf("worker %d disagreement %v != %v", w, gotDis[w], wantDis[w])
		}
	}
}

// TestReplicaKillMidIngestSurvives: killing one replica of a slice in the
// middle of ingestion loses nothing — the fan-out keeps the survivor
// current, the dead node is marked down, and the final estimates match the
// uninterrupted local evaluator exactly.
func TestReplicaKillMidIngestSurvives(t *testing.T) {
	const crowdSize, tasks = 7, 200
	subs := testStream(t, crowdSize, tasks, 62)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, 2)

	cut := len(subs) / 2
	ingestConcurrently(t, coord, subs[:cut], 4, 13)
	if err := grid[1][0].Close(); err != nil { // kill slice 1's first replica
		t.Fatal(err)
	}
	ingestConcurrently(t, coord, subs[cut:], 4, 13)

	if live := coord.LiveReplicas(1); live != 1 {
		t.Fatalf("slice 1 reports %d live replicas after a kill, want 1", live)
	}
	requireEvaluateAllEqual(t, "after replica kill", coord, localReference(t, crowdSize, subs))
}

// TestRestoreNodeFromReplica is the replacement walkthrough: a replica
// dies mid-ingest, a fresh node is attached and seeded from the survivor,
// ingestion continues, and then the *original* survivor dies too — the
// slice now lives entirely on the replacement, and estimates still match
// the uninterrupted run bit for bit.
func TestRestoreNodeFromReplica(t *testing.T) {
	const crowdSize, tasks = 7, 200
	subs := testStream(t, crowdSize, tasks, 63)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, 2)

	third := len(subs) / 3
	ingestConcurrently(t, coord, subs[:third], 4, 13)
	if err := grid[0][1].Close(); err != nil {
		t.Fatal(err)
	}
	ingestConcurrently(t, coord, subs[third:2*third], 4, 13)

	_, conn := freshReplica(t, crowdSize, 3)
	if err := coord.RestoreNode(0, conn, nil); err != nil {
		t.Fatal(err)
	}
	if live := coord.LiveReplicas(0); live != 2 {
		t.Fatalf("slice 0 reports %d live replicas after replacement, want 2", live)
	}
	ingestConcurrently(t, coord, subs[2*third:], 4, 13)

	// Kill the original replica: only the replacement remains for slice 0.
	if err := grid[0][0].Close(); err != nil {
		t.Fatal(err)
	}
	requireEvaluateAllEqual(t, "slice served by restored replacement", coord, localReference(t, crowdSize, subs))
}

// TestRestoreNodeFromCheckpoint is the disaster path: a slice with no
// replication loses its only node. The compact checkpoint taken before the
// crash seeds a replacement, the stream since the cut is re-ingested, and
// EvaluateAll is byte-identical to a run that never crashed — even though
// the cut falls mid-task.
func TestRestoreNodeFromCheckpoint(t *testing.T) {
	const crowdSize, tasks = 7, 200
	subs := testStream(t, crowdSize, tasks, 64)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 1, 2)

	cut := len(subs)*2/5 + 1
	ingestConcurrently(t, coord, subs[:cut], 4, 13)
	deadSlice := 1
	seed := grid[deadSlice][0].Evaluator().CompactCheckpoint()

	// Crash slice 1's only node: the slice is gone.
	if err := grid[deadSlice][0].Close(); err != nil {
		t.Fatal(err)
	}
	err := coord.Ingest([]Response{{Worker: 0, Task: firstTaskOfSlice(coord, deadSlice), Answer: crowd.Yes}})
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("ingest into a dead slice: %v, want ErrNoReplica", err)
	}

	// No live source: restoring without a checkpoint must fail clearly.
	_, conn := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNode(deadSlice, conn, nil); err == nil || !strings.Contains(err.Error(), "no live source") {
		t.Fatalf("restore without source: %v", err)
	}

	_, conn = freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNode(deadSlice, conn, seed); err != nil {
		t.Fatal(err)
	}
	// Re-ingest everything after the checkpoint cut; responses for the
	// surviving slice are duplicates the cluster must reject, so replay
	// only the dead slice's share — exactly what a real recovery replays.
	var replay []Response
	for _, s := range subs[cut:] {
		if coord.sliceOf(s.t) == deadSlice {
			replay = append(replay, Response{Worker: s.w, Task: s.t, Answer: s.r})
		}
	}
	if err := coord.Ingest(replay); err != nil {
		t.Fatal(err)
	}
	// ...and the rest of the stream flows normally to the healthy slice.
	var rest []Response
	for _, s := range subs[cut:] {
		if coord.sliceOf(s.t) != deadSlice {
			rest = append(rest, Response{Worker: s.w, Task: s.t, Answer: s.r})
		}
	}
	if err := coord.Ingest(rest); err != nil {
		t.Fatal(err)
	}
	requireEvaluateAllEqual(t, "slice restored from checkpoint", coord, localReference(t, crowdSize, subs))
}

// firstTaskOfSlice finds a small task index routed to the given slice.
func firstTaskOfSlice(c *Coordinator, si int) int {
	for t := 0; ; t++ {
		if c.sliceOf(t) == si {
			return t
		}
	}
}

// TestRestoreNodeRejectsStaleCheckpoint: a compact seed that lags the live
// replicas is refused before the newcomer joins — attaching it would hand
// the divergence validator a guaranteed failure. A seed equal to the live
// state joins like a survivor reseed.
func TestRestoreNodeRejectsStaleCheckpoint(t *testing.T) {
	const crowdSize = 6
	subs := testStream(t, crowdSize, 150, 65)
	coord, grid := newReplicatedCluster(t, crowdSize, 1, 2, 2)
	cut := len(subs) / 2
	ingestConcurrently(t, coord, subs[:cut], 2, 11)
	seed := grid[0][0].Evaluator().CompactCheckpoint()
	ingestConcurrently(t, coord, subs[cut:], 2, 11) // the seed is now stale
	_, conn := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNode(0, conn, seed); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale seed restore: %v", err)
	}
	if live := coord.LiveReplicas(0); live != 2 {
		t.Fatalf("slice 0 reports %d live replicas after a refused seed, want 2", live)
	}

	_, conn = freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNode(0, conn, grid[0][1].Evaluator().CompactCheckpoint()); err != nil {
		t.Fatalf("current seed refused: %v", err)
	}
	if live := coord.LiveReplicas(0); live != 3 {
		t.Fatalf("slice 0 reports %d live replicas after a current seed, want 3", live)
	}
	requireEvaluateAllEqual(t, "slice joined by a seeded replica", coord, localReference(t, crowdSize, subs))
}

// TestReplicaDivergenceDetected: state written to one replica behind the
// coordinator's back (here directly into its evaluator) is caught at the
// next validated pull as ErrDivergence — never silently merged. The first
// evaluation sets the cursor, so the catching pull is a delta pull: the
// replicas' deltas and digests differ.
func TestReplicaDivergenceDetected(t *testing.T) {
	const crowdSize = 6
	subs := testStream(t, crowdSize, 120, 66)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, 2)
	ingestConcurrently(t, coord, subs, 2, 17)
	if _, err := coord.EvaluateAll(core.EvalOptions{Confidence: 0.9}); err != nil {
		t.Fatal(err)
	}
	// Out-of-band write: replica (0,1) ingests a response its peer never
	// saw.
	if err := grid[0][1].Evaluator().Add(0, firstTaskOfSlice(coord, 0)+1_000_000, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.EvaluateAll(core.EvalOptions{Confidence: 0.9}); !errors.Is(err, ErrDivergence) {
		t.Fatalf("diverged replicas evaluated without error: %v", err)
	}
}

// TestKillAndReplaceUnderConcurrentIngest runs the whole fault-tolerance
// story under the race detector: responses stream in from many goroutines
// while a replica is killed and a replacement is attached and seeded
// mid-flight; afterwards the cluster's estimates match the uninterrupted
// local evaluator bit for bit.
func TestKillAndReplaceUnderConcurrentIngest(t *testing.T) {
	const crowdSize, tasks, goroutines = 8, 240, 6
	subs := testStream(t, crowdSize, tasks, 67)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, 2)

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	gate := make(chan struct{}) // released once the kill has happened
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(subs); i += goroutines {
				if i >= len(subs)/2 {
					<-gate // second half of the stream waits out the kill
				}
				s := subs[i]
				if err := coord.Add(s.w, s.t, s.r); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	// Kill one replica while the first half streams, then attach and seed a
	// replacement while the second half streams.
	if err := grid[1][1].Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	_, conn := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNode(1, conn, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("ingestion goroutine %d: %v", g, err)
		}
	}
	// The original replica dies after the handoff; the replacement carries
	// the slice alone.
	if err := grid[1][0].Close(); err != nil {
		t.Fatal(err)
	}
	requireEvaluateAllEqual(t, "kill and replace under load", coord, localReference(t, crowdSize, subs))
}
