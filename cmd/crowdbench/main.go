// Command crowdbench regenerates the evaluation figures of "Comprehensive
// and Reliable Crowd Assessment Algorithms" (ICDE 2015).
//
// Usage:
//
//	crowdbench -experiment fig1 [-replicates 500] [-seed 1] [-format table] [-o out.dat]
//	crowdbench -experiment all  [-replicates 50] [-parallel]
//	crowdbench -experiment all  -replicates 20 -parallel -benchjson BENCH_1.json
//	crowdbench -ingest 1,2,4,8 -ingest-goroutines 8 -benchjson BENCH_3.json
//	crowdbench -dist 1,2,4 -benchjson BENCH_4.json
//	crowdbench -latency -benchjson BENCH_5.json
//	crowdbench -list
//
// -parallel fans replicates out over every CPU; the per-replicate seeding
// and merge order are unchanged, so the output is byte-identical to a
// serial run. -benchjson additionally records each experiment's wall-clock
// time as machine-readable JSON, so the performance trajectory of the
// runners can be tracked across commits.
//
// -ingest switches to the streaming-ingestion benchmark: for each listed
// shard count it streams one synthetic crowd concurrently into a
// core.ShardedIncremental and reports ingestion throughput (ops/sec vs
// shard count — the sharded evaluator's scaling claim) plus the merge +
// EvaluateAll time that follows. The same submissions go to every shard
// count, so the numbers are comparable within a run.
//
// -latency switches to the closed-loop serving-latency benchmark: the
// submission stream goes through an in-process one-node cluster in
// concurrent batches, and every coordinator ingest round trip plus a
// series of full EvaluateAll rounds is timed into internal/obs
// fixed-bucket histograms. The record carries p50/p95/p99 — the
// serving-layer latency baseline the ROADMAP asks for, in the same
// estimator a live crowdd exports on /metrics.
//
// -dist switches to the distributed-cluster benchmark: for each listed
// node count it spins up that many in-process dist workers, routes the
// same synthetic submission stream through a coordinator in concurrent
// batches, and records ingestion throughput plus the pull + merge +
// EvaluateAll time — the wire-protocol overhead a real crowdd cluster
// pays on top of the in-memory sharded evaluator. A distributed replicate
// sweep is timed per node count too. The workload shape is shared with
// -ingest: -ingest-workers, -ingest-tasks and -ingest-goroutines size the
// crowd, the task space and the concurrent submitters for both
// benchmarks, so their numbers stay comparable.
//
// With -experiment all, every figure is regenerated in sequence; output for
// experiment NAME goes to <out-prefix>NAME.<ext> when -o is given a prefix
// ending in a path separator or to stdout otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/eval"
	"crowdassess/internal/obs"
	"crowdassess/internal/randx"
	"crowdassess/internal/report"
	"crowdassess/internal/sim"
)

// benchRecord is one experiment's machine-readable timing, written by
// -benchjson so the performance trajectory of the runners is recorded
// across commits. The ingestion benchmark fills the streaming fields;
// figure runs leave them zero (omitted from the JSON).
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
	Replicates int     `json:"replicates,omitempty"`
	Seed       int64   `json:"seed"`
	Parallel   bool    `json:"parallel,omitempty"`
	Failures   int     `json:"failures,omitempty"`
	GoMaxProcs int     `json:"gomaxprocs"`

	// Streaming-ingestion fields (-ingest), reused by -dist.
	Shards      int     `json:"shards,omitempty"`
	Goroutines  int     `json:"goroutines,omitempty"`
	Responses   int     `json:"responses,omitempty"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	EvalSeconds float64 `json:"eval_seconds,omitempty"`

	// Distributed-cluster fields (-dist).
	Nodes int `json:"nodes,omitempty"`

	// Closed-loop latency fields (-latency, -gate): per-request quantiles
	// estimated from internal/obs fixed-bucket histograms.
	Samples int     `json:"samples,omitempty"`
	P50     float64 `json:"p50_seconds,omitempty"`
	P95     float64 `json:"p95_seconds,omitempty"`
	P99     float64 `json:"p99_seconds,omitempty"`

	// Gateway load fields (-gate): fraction of requests shed or
	// rate-limited with 429 before admission.
	ShedRate float64 `json:"shed_rate,omitempty"`
}

// validateCounts rejects nonsensical count flags up front, naming the
// offending flag. Zero keeps its documented "pick the default" meaning
// where one exists (-replicates, -ingest-goroutines); negatives never
// mean anything.
func validateCounts(replicates, workers, tasks, goroutines, shards int) error {
	if replicates < 0 {
		return fmt.Errorf("-replicates must not be negative (0 means the paper's default), got %d", replicates)
	}
	if workers <= 0 {
		return fmt.Errorf("-ingest-workers must be positive, got %d", workers)
	}
	if tasks <= 0 {
		return fmt.Errorf("-ingest-tasks must be positive, got %d", tasks)
	}
	if goroutines < 0 {
		return fmt.Errorf("-ingest-goroutines must not be negative (0 means GOMAXPROCS), got %d", goroutines)
	}
	if shards <= 0 {
		return fmt.Errorf("-dist-shards must be positive, got %d", shards)
	}
	return nil
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (fig1…fig5c, or \"all\")")
		replicates = flag.Int("replicates", 0, "replicates per configuration (0 = paper's default: 500 for synthetic figures)")
		seed       = flag.Int64("seed", 1, "base random seed")
		format     = flag.String("format", "table", "output format: table, csv, or gnuplot")
		out        = flag.String("o", "", "output file (or directory prefix with -experiment all); default stdout")
		list       = flag.Bool("list", false, "list available experiments and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress messages")
		parallel   = flag.Bool("parallel", false, "fan replicates out over all CPUs (results are byte-identical to serial)")
		benchjson  = flag.String("benchjson", "", "also write per-experiment wall-clock timings as JSON to this file (e.g. BENCH_1.json)")

		ingest           = flag.String("ingest", "", "run the streaming-ingestion benchmark over these comma-separated shard counts (e.g. 1,2,4,8)")
		ingestWorkers    = flag.Int("ingest-workers", 64, "ingestion and -dist benchmarks: crowd size")
		ingestTasks      = flag.Int("ingest-tasks", 4000, "ingestion and -dist benchmarks: task count")
		ingestGoroutines = flag.Int("ingest-goroutines", 0, "ingestion and -dist benchmarks: concurrent submitters (0 = GOMAXPROCS, min 8)")

		distNodes  = flag.String("dist", "", "run the distributed-cluster benchmark over these comma-separated node counts (e.g. 1,2,4)")
		distShards = flag.Int("dist-shards", 2, "distributed benchmark: task-stripe shards per node")

		latency = flag.Bool("latency", false, "run the closed-loop serving-latency benchmark: per-request ingest and evaluate quantiles (p50/p95/p99) against an in-process cluster")

		gateBench = flag.Bool("gate", false, "run the closed-loop gateway load benchmark: batch-ingest and worker-query quantiles plus shed rate through a live crowdgate HTTP server")
		gateQueue = flag.Int("gate-queue", 0, "gateway benchmark: admission queue depth (0 = gate default)")
	)
	flag.Parse()

	if err := validateCounts(*replicates, *ingestWorkers, *ingestTasks, *ingestGoroutines, *distShards); err != nil {
		fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range eval.Experiments() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	modes := 0
	for _, on := range []bool{*ingest != "", *distNodes != "", *latency, *gateBench} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "crowdbench: -ingest, -dist, -latency and -gate are separate benchmarks; run them one at a time")
		os.Exit(2)
	}
	if modes == 1 {
		var records []benchRecord
		var err error
		switch {
		case *ingest != "":
			records, err = runIngest(*ingest, *ingestWorkers, *ingestTasks, *ingestGoroutines, *seed, *quiet)
		case *latency:
			records, err = runLatency(*distShards, *ingestWorkers, *ingestTasks, *ingestGoroutines, *seed, *quiet)
		case *gateBench:
			records, err = runGate(*distShards, *ingestWorkers, *ingestTasks, *ingestGoroutines, *gateQueue, *seed, *quiet)
		default:
			records, err = runDist(*distNodes, *distShards, *ingestWorkers, *ingestTasks, *ingestGoroutines, *seed, *quiet)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
		if *benchjson != "" {
			if err := writeBenchJSON(*benchjson, records); err != nil {
				fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "crowdbench: -experiment is required (try -list)")
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = eval.Experiments()
	}
	params := eval.Params{Replicates: *replicates, Seed: *seed, Parallel: *parallel}
	var records []benchRecord
	for _, name := range names {
		start := time.Now()
		res, err := eval.Run(name, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "crowdbench: %s done in %v (%d degenerate samples skipped)\n",
				name, elapsed.Round(time.Millisecond), res.Failures)
		}
		records = append(records, benchRecord{
			Experiment: name,
			Seconds:    elapsed.Seconds(),
			Replicates: *replicates,
			Seed:       *seed,
			Parallel:   *parallel,
			Failures:   res.Failures,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		})
		w, closeFn, err := openOutput(*out, name, *format, len(names) > 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
		if err := report.Write(w, *format, res); err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
		if err := closeFn(); err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *benchjson != "" {
		if err := writeBenchJSON(*benchjson, records); err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// maxBenchCounts caps -ingest shard counts and -dist node counts: values
// above it are always a typo, and letting one through would OOM the
// benchmark allocating per-shard state.
const maxBenchCounts = 1 << 12

// parseCountList parses a comma-separated list of positive counts for
// -ingest and -dist, rejecting malformed entries, non-positive values and
// absurd magnitudes with errors that name the flag and the offending
// field, instead of propagating them into the benchmark.
func parseCountList(flagName, list string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(list, ",") {
		field := strings.TrimSpace(f)
		if field == "" {
			return nil, fmt.Errorf("%s: empty count in %q", flagName, list)
		}
		n, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("%s: malformed count %q: %v", flagName, field, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("%s: count must be positive, got %d", flagName, n)
		}
		if n > maxBenchCounts {
			return nil, fmt.Errorf("%s: count %d exceeds limit %d", flagName, n, maxBenchCounts)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// runIngest is the streaming-ingestion benchmark: the same shuffled
// submission stream is ingested concurrently into a ShardedIncremental at
// each requested shard count, and throughput plus the follow-up merge +
// EvaluateAll time are recorded.
func runIngest(shardList string, workers, tasks, goroutines int, seed int64, quiet bool) ([]benchRecord, error) {
	shardCounts, err := parseCountList("-ingest", shardList)
	if err != nil {
		return nil, err
	}
	goroutines = benchGoroutines(goroutines)

	subs, err := genSubmissions(workers, tasks, seed)
	if err != nil {
		return nil, err
	}

	var records []benchRecord
	for _, shards := range shardCounts {
		inc, err := core.NewShardedIncremental(workers, shards)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(subs); i += goroutines {
					s := subs[i]
					if err := inc.Add(s.w, s.t, s.r); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		evalStart := time.Now()
		if _, err := inc.EvaluateAll(core.EvalOptions{Confidence: 0.9}); err != nil {
			return nil, err
		}
		evalElapsed := time.Since(evalStart)
		ops := float64(len(subs)) / elapsed.Seconds()
		if !quiet {
			fmt.Fprintf(os.Stderr, "crowdbench: ingest shards=%d: %d responses in %v (%.0f ops/sec), merge+evaluate %v\n",
				shards, len(subs), elapsed.Round(time.Millisecond), ops, evalElapsed.Round(time.Millisecond))
		}
		records = append(records, benchRecord{
			Experiment:  fmt.Sprintf("ingest/shards=%d", shards),
			Seconds:     elapsed.Seconds(),
			Seed:        seed,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Shards:      shards,
			Goroutines:  goroutines,
			Responses:   len(subs),
			OpsPerSec:   ops,
			EvalSeconds: evalElapsed.Seconds(),
		})
	}
	return records, nil
}

// benchGoroutines resolves the submitter count shared by -ingest and
// -dist. Even on small machines it floors at 8: the benchmarks measure
// lock sharding and request batching under real interleaving, not just
// CPU scaling.
func benchGoroutines(n int) int {
	if n > 0 {
		return n
	}
	n = runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// submission is one generated crowd response for the ingestion benchmarks.
type submission struct {
	w, t int
	r    crowd.Response
}

// genSubmissions generates the shuffled synthetic submission stream both
// -ingest and -dist replay, so their numbers are comparable.
func genSubmissions(workers, tasks int, seed int64) ([]submission, error) {
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.8}.Generate(src)
	if err != nil {
		return nil, err
	}
	var subs []submission
	for w := 0; w < workers; w++ {
		for t := 0; t < tasks; t++ {
			if ds.Attempted(w, t) {
				subs = append(subs, submission{w, t, ds.Response(w, t)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs, nil
}

// runDist is the distributed-cluster benchmark: for each node count it
// spins up that many in-process dist workers behind a coordinator, streams
// the submission stream through in concurrent batches, then times the pull
// + merge + EvaluateAll round and a distributed replicate sweep. The same
// submissions go to every node count, so the numbers are comparable
// within a run.
func runDist(nodeList string, shardsPerNode, workers, tasks, goroutines int, seed int64, quiet bool) ([]benchRecord, error) {
	nodeCounts, err := parseCountList("-dist", nodeList)
	if err != nil {
		return nil, err
	}
	if shardsPerNode < 1 {
		return nil, fmt.Errorf("-dist-shards: count must be positive, got %d", shardsPerNode)
	}
	goroutines = benchGoroutines(goroutines)
	subs, err := genSubmissions(workers, tasks, seed)
	if err != nil {
		return nil, err
	}

	const batchSize = 256
	var records []benchRecord
	for _, nodes := range nodeCounts {
		groups := make([][]dist.ReplicaSpec, nodes)
		workerNodes := make([]*dist.Worker, nodes)
		for i := range groups {
			if workerNodes[i], err = dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shardsPerNode}); err != nil {
				return nil, err
			}
			conn, err := workerNodes[i].SelfConn()
			if err != nil {
				return nil, err
			}
			groups[i] = []dist.ReplicaSpec{{Conn: conn}}
		}
		coord, err := dist.NewCluster(workers, groups, dist.DefaultPolicy())
		if err != nil {
			return nil, err
		}

		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var batch []dist.Response
				flush := func() {
					if len(batch) > 0 && errs[g] == nil {
						errs[g] = coord.Ingest(batch)
						batch = batch[:0]
					}
				}
				for i := g; i < len(subs); i += goroutines {
					s := subs[i]
					batch = append(batch, dist.Response{Worker: s.w, Task: s.t, Answer: s.r})
					if len(batch) >= batchSize {
						flush()
					}
				}
				flush()
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		evalStart := time.Now()
		if _, err := coord.EvaluateAll(core.EvalOptions{Confidence: 0.9}); err != nil {
			return nil, err
		}
		evalElapsed := time.Since(evalStart)

		sweepStart := time.Now()
		spec := eval.SweepSpec{Kernel: eval.SweepWidth, Workers: 7, Tasks: 100, Replicates: 40, Seed: seed}
		if _, err := coord.RunSweep(spec, true); err != nil {
			return nil, err
		}
		sweepElapsed := time.Since(sweepStart)

		if err := coord.Close(); err != nil {
			return nil, err
		}
		for _, w := range workerNodes {
			if err := w.Close(); err != nil {
				return nil, err
			}
		}

		ops := float64(len(subs)) / elapsed.Seconds()
		if !quiet {
			fmt.Fprintf(os.Stderr, "crowdbench: dist nodes=%d: %d responses in %v (%.0f ops/sec), merge+evaluate %v, sweep %v\n",
				nodes, len(subs), elapsed.Round(time.Millisecond), ops, evalElapsed.Round(time.Millisecond), sweepElapsed.Round(time.Millisecond))
		}
		records = append(records,
			benchRecord{
				Experiment:  fmt.Sprintf("dist/nodes=%d", nodes),
				Seconds:     elapsed.Seconds(),
				Seed:        seed,
				GoMaxProcs:  runtime.GOMAXPROCS(0),
				Nodes:       nodes,
				Shards:      shardsPerNode,
				Goroutines:  goroutines,
				Responses:   len(subs),
				OpsPerSec:   ops,
				EvalSeconds: evalElapsed.Seconds(),
			},
			benchRecord{
				Experiment: fmt.Sprintf("distsweep/nodes=%d", nodes),
				Seconds:    sweepElapsed.Seconds(),
				Replicates: 40,
				Seed:       seed,
				Parallel:   true,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				Nodes:      nodes,
			})
	}
	return records, nil
}

// latencyEvalRounds is how many EvaluateAll rounds the -latency benchmark
// times once the stream is ingested: enough samples for a stable p99 of
// the merged-solve path without dominating the run.
const latencyEvalRounds = 32

// runLatency is the closed-loop serving-latency benchmark the ROADMAP's
// serving-layer item asks for: it streams the synthetic submission stream
// through an in-process one-node cluster in concurrent batches, timing
// every coordinator Ingest round trip, then times latencyEvalRounds full
// EvaluateAll rounds — both into internal/obs fixed-bucket histograms, the
// same estimator a live crowdd exports on /metrics, so the committed
// quantiles and the scraped ones are directly comparable.
func runLatency(shardsPerNode, workers, tasks, goroutines int, seed int64, quiet bool) ([]benchRecord, error) {
	goroutines = benchGoroutines(goroutines)
	subs, err := genSubmissions(workers, tasks, seed)
	if err != nil {
		return nil, err
	}
	node, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shardsPerNode})
	if err != nil {
		return nil, err
	}
	conn, err := node.SelfConn()
	if err != nil {
		return nil, err
	}
	coord, err := dist.NewCluster(workers, [][]dist.ReplicaSpec{{{Conn: conn}}}, dist.DefaultPolicy())
	if err != nil {
		return nil, err
	}

	ingestHist := obs.NewHistogram(nil)
	evalHist := obs.NewHistogram(nil)

	const batchSize = 256
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var batch []dist.Response
			flush := func() {
				if len(batch) > 0 && errs[g] == nil {
					t0 := time.Now()
					errs[g] = coord.Ingest(batch)
					ingestHist.Observe(time.Since(t0).Seconds())
					batch = batch[:0]
				}
			}
			for i := g; i < len(subs); i += goroutines {
				s := subs[i]
				batch = append(batch, dist.Response{Worker: s.w, Task: s.t, Answer: s.r})
				if len(batch) >= batchSize {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	evalStart := time.Now()
	for i := 0; i < latencyEvalRounds; i++ {
		t0 := time.Now()
		if _, err := coord.EvaluateAll(core.EvalOptions{Confidence: 0.9}); err != nil {
			return nil, err
		}
		evalHist.Observe(time.Since(t0).Seconds())
	}
	evalElapsed := time.Since(evalStart)

	if err := coord.Close(); err != nil {
		return nil, err
	}
	if err := node.Close(); err != nil {
		return nil, err
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "crowdbench: latency ingest: %d batches p50=%.4fs p95=%.4fs p99=%.4fs; evaluate: %d rounds p50=%.4fs p99=%.4fs\n",
			ingestHist.Count(), ingestHist.Quantile(0.5), ingestHist.Quantile(0.95), ingestHist.Quantile(0.99),
			evalHist.Count(), evalHist.Quantile(0.5), evalHist.Quantile(0.99))
	}
	return []benchRecord{
		{
			Experiment: "latency/ingest",
			Seconds:    elapsed.Seconds(),
			Seed:       seed,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Shards:     shardsPerNode,
			Goroutines: goroutines,
			Responses:  len(subs),
			OpsPerSec:  float64(len(subs)) / elapsed.Seconds(),
			Samples:    int(ingestHist.Count()),
			P50:        ingestHist.Quantile(0.5),
			P95:        ingestHist.Quantile(0.95),
			P99:        ingestHist.Quantile(0.99),
		},
		{
			Experiment: "latency/evaluate",
			Seconds:    evalElapsed.Seconds(),
			Seed:       seed,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Shards:     shardsPerNode,
			Responses:  len(subs),
			OpsPerSec:  float64(latencyEvalRounds) / evalElapsed.Seconds(),
			Samples:    int(evalHist.Count()),
			P50:        evalHist.Quantile(0.5),
			P95:        evalHist.Quantile(0.95),
			P99:        evalHist.Quantile(0.99),
		},
	}, nil
}

// writeBenchJSON records the timing trajectory for tooling. The write is
// atomic — encode to a temp file in the target directory, then rename —
// so an interrupted run can never truncate a committed BENCH_*.json: the
// previous series survives intact until the new one is fully written.
func writeBenchJSON(path string, records []benchRecord) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// openOutput resolves the output destination: stdout when no -o is given,
// a single file for one experiment, or per-experiment files under a prefix
// for -experiment all.
func openOutput(out, name, format string, multi bool) (io.Writer, func() error, error) {
	if out == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	path := out
	if multi {
		ext := map[string]string{"table": "txt", "csv": "csv", "gnuplot": "dat"}[format]
		if strings.HasSuffix(out, string(os.PathSeparator)) {
			path = filepath.Join(out, name+"."+ext)
		} else {
			path = out + name + "." + ext
		}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
