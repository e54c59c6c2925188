package crowdassess_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"crowdassess"
)

// TestDistributedEvaluatorExact drives the distributed path end to end
// through the public API: an in-process cluster ingests a crowd
// concurrently and its intervals are bit-identical to the batch
// algorithm's.
func TestDistributedEvaluatorExact(t *testing.T) {
	const workers, tasks = 7, 200
	ds, _ := buildCrowd(t, 31, workers, tasks, 0.8)

	coord, err := crowdassess.NewInProcessCluster(workers, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Each crowd worker submits from its own goroutine, batched.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []crowdassess.DistResponse
			for task := 0; task < tasks; task++ {
				if ds.Attempted(w, task) {
					batch = append(batch, crowdassess.DistResponse{Worker: w, Task: task, Answer: ds.Response(w, task)})
				}
			}
			errs[w] = coord.Ingest(batch)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := crowdassess.Options{Confidence: 0.9}
	want, err := crowdassess.EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d estimates, want %d", len(got), len(want))
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
			t.Fatalf("worker %d: distributed interval [%v, %v] differs from batch [%v, %v]",
				i, got[i].Interval.Lo, got[i].Interval.Hi, want[i].Interval.Lo, want[i].Interval.Hi)
		}
	}
}

// TestDistributedPoolFacade runs the pool lifecycle end to end through the
// public API against a replicated in-process cluster, with a mid-stream
// node replacement: decisions must match the local sharded pool exactly.
func TestDistributedPoolFacade(t *testing.T) {
	const workers, tasks = 7, 220
	ds, _ := buildCrowd(t, 47, workers, tasks, 0.75)
	policy := crowdassess.DefaultPoolPolicy()

	// Two slices, two replicas each.
	grid := make([][]*crowdassess.DistWorker, 2)
	groups := make([][]crowdassess.DistReplicaSpec, 2)
	for si := range groups {
		grid[si] = make([]*crowdassess.DistWorker, 2)
		groups[si] = make([]crowdassess.DistReplicaSpec, 2)
		for ri := range groups[si] {
			w, err := crowdassess.NewDistWorker(crowdassess.DistWorkerOptions{Workers: workers, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			grid[si][ri] = w
			if groups[si][ri].Conn, err = w.SelfConn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord, err := crowdassess.NewCluster(workers, groups, crowdassess.DefaultDistPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	clusterPool, err := crowdassess.NewPool(crowdassess.NewClusterEvaluator(coord, 16), policy)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := crowdassess.NewShardedIncremental(workers, 3)
	if err != nil {
		t.Fatal(err)
	}
	localPool, err := crowdassess.NewPool(ev, policy)
	if err != nil {
		t.Fatal(err)
	}

	record := func(from, to int) {
		t.Helper()
		for task := from; task < to; task++ {
			for w := 0; w < workers; w++ {
				if !ds.Attempted(w, task) {
					continue
				}
				errL := localPool.Record(w, task, ds.Response(w, task))
				errC := clusterPool.Record(w, task, ds.Response(w, task))
				if (errL == nil) != (errC == nil) {
					t.Fatalf("task %d worker %d: record %v locally vs %v on cluster", task, w, errL, errC)
				}
			}
		}
	}

	record(0, tasks/2)
	// Kill one replica and seed a replacement from its survivor, mid-pool.
	if err := grid[0][0].Close(); err != nil {
		t.Fatal(err)
	}
	replacement, err := crowdassess.NewDistWorker(crowdassess.DistWorkerOptions{Workers: workers, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer replacement.Close()
	conn, err := replacement.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.RestoreNode(0, conn, nil); err != nil {
		t.Fatal(err)
	}
	record(tasks/2, tasks)

	wantDecisions, err := localPool.Review()
	if err != nil {
		t.Fatal(err)
	}
	gotDecisions, err := clusterPool.Review()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDecisions, wantDecisions) {
		t.Fatalf("cluster pool decisions differ:\n got %+v\nwant %+v", gotDecisions, wantDecisions)
	}
	for w := 0; w < workers; w++ {
		if localPool.State(w) != clusterPool.State(w) {
			t.Fatalf("worker %d: state %v on cluster vs %v locally", w, clusterPool.State(w), localPool.State(w))
		}
	}
}
