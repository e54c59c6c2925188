// Distributed: span the streaming evaluator across worker nodes. Three
// in-process workers — the same protocol and wire codec a real crowdd
// cluster speaks over TCP — each ingest the task slice the coordinator
// routes to them; evaluation pulls every node's statistics export, merges
// the integer counters exactly, and solves once. The printed intervals
// are bit-identical to a single-process evaluator fed the same responses,
// which this example verifies.
//
// The second half is the kill-and-restore walkthrough: a replicated
// cluster journals every batch into per-slice write-ahead logs and ingests
// half the stream, one replica is killed mid-ingest, compact snapshots are
// cut, a replacement is seeded from its survivor, and once the whole slice
// dies it is rebuilt from its snapshot plus journal tail. The final
// estimates are verified bit-identical to an uninterrupted run — the
// fault-tolerance contract.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdassess"
	"crowdassess/internal/store"
)

func main() {
	// A synthetic crowd: worker 4 is a spammer, the rest are decent.
	trueRates := []float64{0.05, 0.12, 0.18, 0.25, 0.48}
	const workers, tasks = 5, 300
	src := crowdassess.NewSimSource(23)
	ds, _, err := crowdassess.BinarySim{
		Tasks:      tasks,
		Workers:    workers,
		ErrorRates: trueRates,
	}.Generate(src)
	if err != nil {
		log.Fatal(err)
	}

	// A cluster of 3 worker nodes, 2 ingestion shards each. For real
	// deployments, start crowdd daemons, dial each with DialDistWorker and
	// assemble them with NewCluster instead — the protocol is identical.
	coord, err := crowdassess.NewInProcessCluster(workers, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Every crowd worker submits over its own connection, concurrently;
	// the coordinator routes each task's responses to its owning node.
	var wg sync.WaitGroup
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
			if err := coord.Ingest(batch); err != nil {
				log.Fatal(err)
			}
		}(w)
	}
	wg.Wait()

	total, err := coord.Responses()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster of %d nodes ingested %d responses\n\n", coord.Nodes(), total)

	// Evaluate on the coordinator: pull exports, merge, solve once.
	ests, err := coord.EvaluateAll(crowdassess.Options{Confidence: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range ests {
		if e.Err != nil {
			fmt.Printf("worker %d: %v\n", e.Worker, e.Err)
			continue
		}
		fmt.Printf("worker %d: error rate in [%.3f, %.3f]  (true %.2f)\n",
			e.Worker, e.Interval.Lo, e.Interval.Hi, trueRates[e.Worker])
	}

	// The exactness contract: a single-process evaluator fed the same
	// responses produces bit-identical intervals.
	local, err := crowdassess.NewShardedIncremental(workers, 1)
	if err != nil {
		log.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for task := 0; task < tasks; task++ {
			if ds.Attempted(w, task) {
				if err := local.Add(w, task, ds.Response(w, task)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	localEsts, err := local.EvaluateAll(crowdassess.Options{Confidence: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	exact := true
	for i := range ests {
		if (ests[i].Err == nil) != (localEsts[i].Err == nil) {
			exact = false
		} else if ests[i].Err == nil &&
			(math.Float64bits(ests[i].Interval.Lo) != math.Float64bits(localEsts[i].Interval.Lo) ||
				math.Float64bits(ests[i].Interval.Hi) != math.Float64bits(localEsts[i].Interval.Hi)) {
			exact = false
		}
	}
	fmt.Printf("\nbit-identical to single-process evaluation: %v\n", exact)

	killAndRestore(ds, localEsts)
	selfHealing(ds, localEsts)
}

// killAndRestore walks the fault-tolerance story by hand: a replica dies
// mid-ingest, compact snapshots are cut into the slice stores, a
// replacement is seeded from the survivor, then the whole slice dies and is
// rebuilt from its store alone — and the estimates still match the
// uninterrupted local evaluator bit for bit.
func killAndRestore(ds *crowdassess.Dataset, want []crowdassess.WorkerEstimate) {
	const slices, replicas = 2, 2
	workers, tasks := ds.Workers(), ds.Tasks()

	newNode := func(name string) (*crowdassess.DistWorker, *crowdassess.DistConn) {
		w, err := crowdassess.NewDistWorker(crowdassess.DistWorkerOptions{Workers: workers, Shards: 2, Name: name})
		if err != nil {
			log.Fatal(err)
		}
		conn, err := w.SelfConn()
		if err != nil {
			log.Fatal(err)
		}
		return w, conn
	}

	// Build the replica grid: groups[si] jointly own task slice si.
	grid := make([][]*crowdassess.DistWorker, slices)
	groups := make([][]crowdassess.DistReplicaSpec, slices)
	for si := 0; si < slices; si++ {
		grid[si] = make([]*crowdassess.DistWorker, replicas)
		groups[si] = make([]crowdassess.DistReplicaSpec, replicas)
		for ri := 0; ri < replicas; ri++ {
			w, conn := newNode(fmt.Sprintf("slice%d-replica%d", si, ri))
			defer w.Close()
			grid[si][ri], groups[si][ri].Conn = w, conn
		}
	}
	coord, err := crowdassess.NewCluster(workers, groups, crowdassess.DefaultDistPolicy())
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// One durable store per slice: every acknowledged batch is journaled
	// before Ingest returns.
	dir, err := os.MkdirTemp("", "crowd-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stores := make([]*store.Store, slices)
	for si := range stores {
		sliceDir := filepath.Join(dir, fmt.Sprintf("slice-%03d", si))
		if stores[si], err = store.Open(store.OSFS{}, sliceDir, store.Options{Fsync: store.FsyncNever}); err != nil {
			log.Fatal(err)
		}
		defer stores[si].Close()
	}
	if err := coord.AttachSliceStores(stores); err != nil {
		log.Fatal(err)
	}

	var stream []crowdassess.DistResponse
	for w := 0; w < workers; w++ {
		for task := 0; task < tasks; task++ {
			if ds.Attempted(w, task) {
				stream = append(stream, crowdassess.DistResponse{Worker: w, Task: task, Answer: ds.Response(w, task)})
			}
		}
	}

	// First half streams in, then disaster: slice 0 loses a replica.
	half := len(stream) / 2
	if err := coord.Ingest(stream[:half]); err != nil {
		log.Fatal(err)
	}
	if err := grid[0][0].Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nkilled one replica of slice 0 mid-ingest")

	// Cut compact snapshots while degraded (each slice still has a live
	// source) and truncate the journals behind them. The coordinator
	// discovers the death here — the first operation that touches the dead
	// connection marks it down and proceeds on the survivor.
	if err := coord.CheckpointCompactAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cut compact snapshots; slice 0 has %d live replica(s)\n", coord.LiveReplicas(0))

	// Replacement: a fresh node is attached and seeded from the survivor
	// under the slice lock, so it joins the fan-out in lockstep.
	replacement, conn := newNode("slice0-replacement")
	defer replacement.Close()
	if err := coord.RestoreNode(0, conn, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attached a replacement: slice 0 back to %d live replicas\n", coord.LiveReplicas(0))

	// The rest of the stream flows; then every replica of slice 0 dies.
	if err := coord.Ingest(stream[half:]); err != nil {
		log.Fatal(err)
	}
	grid[0][1].Close()
	replacement.Close()
	if _, err := coord.Responses(); err == nil {
		log.Fatal("slice 0 still answered with every replica dead")
	}

	// Rebuild slice 0 from disk alone: the compact snapshot is pushed as a
	// restore, then the journal tail past it is re-ingested.
	rebuilt, conn := newNode("slice0-rebuilt")
	defer rebuilt.Close()
	if err := coord.RestoreNodeFromStore(0, conn); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt slice 0 from its store: %d live replica(s)\n", coord.LiveReplicas(0))

	got, err := coord.EvaluateAll(crowdassess.Options{Confidence: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	exact := true
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			exact = false
		} else if got[i].Err == nil &&
			(math.Float64bits(got[i].Interval.Lo) != math.Float64bits(want[i].Interval.Lo) ||
				math.Float64bits(got[i].Interval.Hi) != math.Float64bits(want[i].Interval.Hi)) {
			exact = false
		}
	}
	fmt.Printf("after kill, snapshot, reseed, slice loss and rebuild — bit-identical to uninterrupted: %v\n", exact)
}

// selfHealing is the hands-off version of the same story: the heartbeat
// monitor — not an operator — notices a dead replica and re-seeds a
// replacement from the survivor, while ingestion keeps flowing and the
// membership view narrates the recovery.
func selfHealing(ds *crowdassess.Dataset, want []crowdassess.WorkerEstimate) {
	workers, tasks := ds.Workers(), ds.Tasks()

	newNode := func(name string) *crowdassess.DistWorker {
		w, err := crowdassess.NewDistWorker(crowdassess.DistWorkerOptions{Workers: workers, Shards: 2, Name: name})
		if err != nil {
			log.Fatal(err)
		}
		return w
	}

	// One slice, two replicas. Each slot's dialer resolves through
	// `current` — the in-process stand-in for a stable network address
	// that outlives the process behind it. With crowdd daemons, this is
	// what a crowdgate tenant with `"cluster": "a,b"` wires up from TCP
	// addresses.
	var mu sync.Mutex
	current := []*crowdassess.DistWorker{newNode("heal-0"), newNode("heal-1")}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, w := range current {
			w.Close()
		}
	}()
	specs := make([]crowdassess.DistReplicaSpec, len(current))
	for ri := range specs {
		conn, err := current[ri].SelfConn()
		if err != nil {
			log.Fatal(err)
		}
		ri := ri
		specs[ri] = crowdassess.DistReplicaSpec{
			Conn: conn,
			Dial: func() (*crowdassess.DistConn, error) {
				mu.Lock()
				defer mu.Unlock()
				return current[ri].SelfConn()
			},
		}
	}
	coord, err := crowdassess.NewCluster(workers, [][]crowdassess.DistReplicaSpec{specs}, crowdassess.DefaultDistPolicy())
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	coord.StartMonitor(crowdassess.ClusterMonitorOptions{
		Interval:     20 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    2,
		ReseedEvery:  40 * time.Millisecond,
		OnEvent:      func(e crowdassess.ClusterEvent) { fmt.Printf("  monitor: %s\n", e) },
	})

	var stream []crowdassess.DistResponse
	for w := 0; w < workers; w++ {
		for task := 0; task < tasks; task++ {
			if ds.Attempted(w, task) {
				stream = append(stream, crowdassess.DistResponse{Worker: w, Task: task, Answer: ds.Response(w, task)})
			}
		}
	}

	fmt.Println("\nself-healing: monitor on, killing a replica mid-stream")
	half := len(stream) / 2
	if err := coord.Ingest(stream[:half]); err != nil {
		log.Fatal(err)
	}

	// The replica dies; a fresh empty process comes up at its address. No
	// operator steps follow — the monitor detects the death and replays
	// the slice's state into the newcomer.
	mu.Lock()
	dead := current[0]
	current[0] = newNode("heal-0-reborn")
	mu.Unlock()
	dead.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		view := coord.Membership()
		if view[0].State == "alive" && view[0].Reseeds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("monitor never re-seeded the replica: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, m := range coord.Membership() {
		fmt.Printf("  membership: slice %d replica %d (%s) %s, reseeds %d\n",
			m.Slice, m.Replica, m.Node, m.State, m.Reseeds)
	}

	if err := coord.Ingest(stream[half:]); err != nil {
		log.Fatal(err)
	}
	got, err := coord.EvaluateAll(crowdassess.Options{Confidence: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	exact := true
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			exact = false
		} else if got[i].Err == nil &&
			(math.Float64bits(got[i].Interval.Lo) != math.Float64bits(want[i].Interval.Lo) ||
				math.Float64bits(got[i].Interval.Hi) != math.Float64bits(want[i].Interval.Hi)) {
			exact = false
		}
	}
	fmt.Printf("auto-healed with zero failed ingests — bit-identical to uninterrupted: %v\n", exact)
}
