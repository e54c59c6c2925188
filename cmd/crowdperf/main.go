// Command crowdperf is the project's benchmark: one process runs one
// workload against the real serving stack or the paper's estimators,
// checks the result for correctness, and prints every metric with its
// unit.
//
// Usage:
//
//	crowdperf -workload NAME -seed N [-seconds S] [-trace 0|1] [-spans FILE]
//	crowdperf -compare A.json... -- B.json...
//
// Workloads are ingest_http, review_sparse, failover_ingest and
// paper_sweep; see README.md for what each exercises and why. Every input
// is generated from -seed before timing starts, and the timed phase lasts
// -seconds. Standard output carries two JSON lines: the full report
// (every metric with unit and sample count, the input of -compare), then
// the result line (correctness, operation counts and the BENCHMARK.json
// metrics). A table goes to standard error. The exit status is non-zero
// when the correctness check fails.
//
// -trace 1 runs the same workload with every layer timed from outside and
// reports the per-layer metrics instead; its end-to-end numbers carry the
// tracing overhead and are compared only against other traced runs.
//
// -compare reads saved standard outputs of runs, two sets separated by
// --, and prints per workload and metric each side's median and quartiles
// against the bounds in BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crowdperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: ingest_http, review_sparse, failover_ingest or paper_sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	fs.Float64Var(&cfg.scale, "scale", 1, "input sizes and the operations between reviews and reseeds, relative to the benchmark's (the smoke test runs 0.01)")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "wal"), "directory for write-ahead logs, removed after the run")
	compare := fs.Bool("compare", false, "compare saved runs: A.json... -- B.json...")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *benchmark, stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "crowdperf: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "crowdperf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case !(cfg.seconds > 0):
		fmt.Fprintf(stderr, "crowdperf: -seconds must be positive, got %g\n", cfg.seconds)
		return 2
	case !(cfg.scale > 0):
		fmt.Fprintf(stderr, "crowdperf: -scale must be positive, got %g\n", cfg.scale)
		return 2
	case cfg.spans != "" && *trace != 1:
		fmt.Fprintln(stderr, "crowdperf: -spans needs -trace 1")
		return 2
	}
	cfg.traced = *trace == 1
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "crowdperf: %v\n", err)
		return 1
	}
	writeTable(stderr, rep)
	if err := writeOutput(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "crowdperf: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
