package dist

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/pool"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// poolStream generates a crowd with distinct tiers — solid workers, a
// borderline one, and a spammer — so reviews exercise promote, fire and
// no-change paths.
func poolStream(t *testing.T, seed int64) (int, []submission) {
	t.Helper()
	rates := []float64{0.05, 0.08, 0.12, 0.18, 0.26, 0.05, 0.10, 0.48}
	src := randx.NewSource(500 + seed)
	ds, _, err := sim.Binary{Tasks: 260, Workers: len(rates), ErrorRates: rates, Density: 0.75}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	var subs []submission
	for w := 0; w < ds.Workers(); w++ {
		for task := 0; task < ds.Tasks(); task++ {
			if ds.Attempted(w, task) {
				subs = append(subs, submission{w, task, ds.Response(w, task)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return len(rates), subs
}

// recordConcurrently streams one phase of responses into a pool from many
// goroutines, requiring both pools to reject exactly the same submissions
// (fired workers), by reporting each submission's acceptance.
func recordConcurrently(t *testing.T, m *pool.Manager, subs []submission, goroutines int) []bool {
	t.Helper()
	accepted := make([]bool, len(subs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(subs); i += goroutines {
				s := subs[i]
				accepted[i] = m.Record(s.w, s.t, s.r) == nil
			}
		}(g)
	}
	wg.Wait()
	return accepted
}

// TestDistributedPoolBitIdenticalToSharded is the tentpole acceptance
// criterion: pool.Manager over a replicated cluster produces review and
// exclusion decisions — and estimates — bit-identical to the local sharded
// pool on the same stream. Records run concurrently; reviews run at the
// same stream points.
func TestDistributedPoolBitIdenticalToSharded(t *testing.T) {
	crowdSize, subs := poolStream(t, 1)
	policy := pool.DefaultPolicy()

	ev, err := core.NewShardedIncremental(crowdSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	local, err := pool.NewManagerWith(ev, policy)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := newReplicatedCluster(t, crowdSize, 3, 2, 2)
	cluster, err := pool.NewManagerWith(NewClusterEvaluator(coord, 32), policy)
	if err != nil {
		t.Fatal(err)
	}

	phases := [][2]int{{0, len(subs) / 2}, {len(subs) / 2, len(subs)}}
	for pi, phase := range phases {
		part := subs[phase[0]:phase[1]]
		acceptedLocal := recordConcurrently(t, local, part, 5)
		acceptedCluster := recordConcurrently(t, cluster, part, 5)
		if !reflect.DeepEqual(acceptedLocal, acceptedCluster) {
			t.Fatalf("phase %d: pools accepted different submissions", pi)
		}

		wantDecisions, err := local.Review()
		if err != nil {
			t.Fatal(err)
		}
		gotDecisions, err := cluster.Review()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotDecisions, wantDecisions) {
			t.Fatalf("phase %d review decisions differ:\n got %+v\nwant %+v", pi, gotDecisions, wantDecisions)
		}
		for w := 0; w < crowdSize; w++ {
			if local.State(w) != cluster.State(w) {
				t.Fatalf("phase %d: worker %d state %v vs %v", pi, w, cluster.State(w), local.State(w))
			}
		}

		wantEsts, err := local.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		gotEsts, err := cluster.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		compareEstimates(t, "pool estimates", gotEsts, wantEsts)
	}

	// At least one fire and one promote must have happened, or the test
	// never exercised the decision paths it claims to pin.
	fired, promoted := 0, 0
	for w := 0; w < crowdSize; w++ {
		switch local.State(w) {
		case pool.Fired:
			fired++
		case pool.Active:
			promoted++
		}
	}
	if fired == 0 || promoted == 0 {
		t.Fatalf("stream exercised no decisions (fired %d, promoted %d) — regenerate it", fired, promoted)
	}
}

// TestClusterEvaluatorStreamingContract: the adapter satisfies the
// streaming interface's observable contract against a local reference —
// counts, screens and snapshots all flush buffered Adds first.
func TestClusterEvaluatorStreamingContract(t *testing.T) {
	const crowdSize = 6
	subs := testStream(t, crowdSize, 140, 68)
	coord := newInProcessCluster(t, crowdSize, 2, 2)
	ev := NewClusterEvaluator(coord, 64)
	local := localReference(t, crowdSize, subs)

	for _, s := range subs {
		if err := ev.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	// Buffered responses are visible to every read.
	if got := ev.Responses(); got != local.Responses() {
		t.Fatalf("Responses %d, want %d", got, local.Responses())
	}
	if got := ev.Tasks(); got != local.Tasks() {
		t.Fatalf("Tasks %d, want %d", got, local.Tasks())
	}
	wantDis := local.MajorityDisagreement()
	gotDis := ev.MajorityDisagreement()
	for w := range wantDis {
		if math.Float64bits(wantDis[w]) != math.Float64bits(gotDis[w]) {
			t.Fatalf("worker %d disagreement %v != %v", w, gotDis[w], wantDis[w])
		}
	}

	requireSnapshotEqual(t, "adapter", ev.Snapshot, local)

	// Local rejections are immediate and do not poison the buffer.
	if err := ev.Add(-1, 0, crowd.Yes); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if err := ev.Add(0, -1, crowd.Yes); err == nil {
		t.Fatal("negative task accepted")
	}
	if err := ev.Add(0, 0, crowd.Response(9)); err == nil {
		t.Fatal("non-binary response accepted")
	}

	// A remote rejection (duplicate) surfaces at the flush that ships it.
	if err := ev.Add(subs[0].w, subs[0].t, subs[0].r); err != nil {
		t.Fatalf("buffered duplicate rejected early: %v", err)
	}
	if err := ev.Flush(); err == nil {
		t.Fatal("duplicate response not surfaced at flush")
	}
}

// requireSnapshotEqual materializes a cluster's responses with snapshot and
// requires the Dataset to equal the reference's, cell by cell.
func requireSnapshotEqual(t *testing.T, label string, snapshot func() (*crowd.Dataset, error), local *batchReference) {
	t.Helper()
	wantDS, err := local.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotDS, err := snapshot()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if gotDS.Workers() != wantDS.Workers() || gotDS.Tasks() != wantDS.Tasks() {
		t.Fatalf("%s: snapshot shape %dx%d, want %dx%d", label, gotDS.Workers(), gotDS.Tasks(), wantDS.Workers(), wantDS.Tasks())
	}
	for w := 0; w < wantDS.Workers(); w++ {
		for task := 0; task < wantDS.Tasks(); task++ {
			if wantDS.Response(w, task) != gotDS.Response(w, task) {
				t.Fatalf("%s: snapshot (%d,%d): %v != %v", label, w, task, gotDS.Response(w, task), wantDS.Response(w, task))
			}
		}
	}
}

// TestClusterSnapshotMatchesLocal: the Dataset a cluster materializes from
// its slices' compact states equals the local evaluator's on shards
// {1,2,7}, and still does once a slice is served only by a replica that a
// survivor reseed (RestoreNode with no seed) brought up.
func TestClusterSnapshotMatchesLocal(t *testing.T) {
	const crowdSize = 7
	subs := testStream(t, crowdSize, 180, 69)
	half := len(subs) / 2
	for _, shards := range []int{1, 2, 7} {
		coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, shards)
		ingestConcurrently(t, coord, subs[:half], 3, 16)
		label := fmt.Sprintf("shards=%d", shards)
		requireSnapshotEqual(t, label, coord.Snapshot, localReference(t, crowdSize, subs[:half]))

		if err := grid[1][0].Close(); err != nil {
			t.Fatal(err)
		}
		_, conn := freshReplica(t, crowdSize, shards)
		if err := coord.RestoreNode(1, conn, nil); err != nil {
			t.Fatal(err)
		}
		if err := grid[1][1].Close(); err != nil { // only the reseeded replica is left
			t.Fatal(err)
		}
		ingestConcurrently(t, coord, subs[half:], 3, 16)
		requireSnapshotEqual(t, label+" after a survivor reseed", coord.Snapshot, localReference(t, crowdSize, subs))
	}
}

// TestClusterEvaluatorUnreachable: with the cluster gone, the
// infallible-signature methods return zero values and the parked error
// surfaces on the next fallible call instead of vanishing.
func TestClusterEvaluatorUnreachable(t *testing.T) {
	const crowdSize = 5
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ev := NewClusterEvaluator(coord, 4)
	if err := ev.Add(0, 1, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if err := ev.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ev.MajorityDisagreement(); len(got) != crowdSize {
		t.Fatalf("disagreement fallback has %d entries, want %d", len(got), crowdSize)
	}
	if _, err := ev.EvaluateAll(core.EvalOptions{Confidence: 0.9}); err == nil {
		t.Fatal("evaluation against a dead cluster succeeded")
	}
}
