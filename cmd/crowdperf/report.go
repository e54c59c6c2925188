package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric of the BENCHMARK.json catalog and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload
// of an untraced run. "op" is the workload's headline operation: a batch
// ingest on ingest_http and failover_ingest, a worker query on
// review_sparse, one whole sweep on paper_sweep.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports, one layer at a time. A layer a
// workload never calls reads 0 there (gate on failover_ingest, dist and
// store on ingest_http, every serving layer on paper_sweep).
var perLayer = []metricDef{
	{"gate.ingest_serve_ms.p50", "ms"},
	{"gate.query_serve_ms.p50", "ms"},
	{"gate.review_serve_ms.p50", "ms"},
	{"gate.http_ms.p50", "ms"},
	{"gate.self_ms_per_request", "ms"},
	{"gate.shed_total", "count"},
	{"core.add_calls", "count"},
	{"core.add_us.p50", "us"},
	{"core.evaluate_calls", "count"},
	{"core.workers_solved_per_call", "count"},
	{"core.evaluate_ms.p50", "ms"},
	{"core.majority_ms.p50", "ms"},
	{"core.merge_ms", "ms"},
	{"core.solve_all_ms", "ms"},
	{"core.solve_one_ms", "ms"},
	{"dist.evaluate_ms.p50", "ms"},
	{"dist.flush_ms.p50", "ms"},
	{"dist.ingest_ms.p50", "ms"},
	{"dist.pull_merge_ms", "ms"},
	{"dist.pull_bytes", "bytes"},
	{"dist.wire_bytes_per_response", "bytes"},
	{"dist.reseed_ms.p50", "ms"},
	{"dist.reseed_bytes.p50", "bytes"},
	{"dist.rpc_errors", "count"},
	{"dist.rpc_retries", "count"},
	{"dist.replica_down_events", "count"},
	{"store.fsyncs_per_ingest", "count"},
	{"store.fsync_ms.p50", "ms"},
	{"store.write_ms_per_ingest", "ms"},
	{"store.write_bytes_per_response", "bytes"},
	{"eval.fig3_s", "s"},
	{"eval.fig4_s", "s"},
	{"eval.fig5b_s", "s"},
	{"eval.fig5c_s", "s"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// metric is one reported number with its unit and, for timings, how many
// samples it was computed from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one run measured: the first line crowdperf prints
// and the input -compare reads.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Seconds    float64           `json:"seconds"`
	Scale      float64           `json:"scale"`
	NumCPU     int               `json:"numcpu"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"goversion"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func newReport(cfg config) *report {
	return &report{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Metrics:    map[string]metric{},
	}
}

// set records one metric. Non-finite values (a ratio over nothing) are
// recorded as 0 so the report stays valid JSON.
func (r *report) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// latency records a nearest-rank median and, where at least minBeyond
// samples lie above it, a p99 of millisecond samples as <prefix>_p50_ms
// and <prefix>_p99_ms.
func (r *report) latency(prefix string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	asc := sorted(ms)
	r.set(prefix+"_p50_ms", "ms", nearestRank(asc, 0.5), len(asc))
	if tailReportable(len(asc), 0.99) {
		r.set(prefix+"_p99_ms", "ms", nearestRank(asc, 0.99), len(asc))
	}
}

// fail marks the run incorrect with the reason.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// resultMetric is one metric of the result line: value and unit only.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line crowdperf prints: correctness, operation counts
// and the catalog's metrics — the end-to-end set for an untraced run, the
// per-layer set for a traced one.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result projects the report onto the catalog. An end-to-end metric the
// workload failed to measure is an error; a per-layer metric of a layer
// the workload does not call reads 0.
func (r *report) result() (result, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultMetric{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok && !r.Traced:
			return result{}, fmt.Errorf("workload %s did not measure %s", r.Workload, d.name)
		case ok && m.Unit != d.unit:
			return result{}, fmt.Errorf("metric %s measured in %s, catalog says %s", d.name, m.Unit, d.unit)
		}
		out.Metrics[d.name] = resultMetric{Value: m.Value, Unit: d.unit}
	}
	return out, nil
}

// writeOutput prints the report line, then the result line, to stdout.
func writeOutput(w io.Writer, r *report) error {
	res, err := r.result()
	if err != nil {
		return err
	}
	for _, v := range []any{r, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// writeTable prints the report as a human-readable table.
func writeTable(w io.Writer, r *report) {
	mode := "untraced"
	if r.Traced {
		mode = "traced (end-to-end numbers include tracing overhead)"
	}
	fmt.Fprintf(w, "crowdperf %s seed=%d seconds=%g scale=%g numcpu=%d gomaxprocs=%d %s, %s\n",
		r.Workload, r.Seed, r.Seconds, r.Scale, r.NumCPU, r.GoMaxProcs, r.GoVersion, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", name, m.Value, m.Unit, samples)
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT: " + strings.Join(r.Problems, "; ")
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d %s\n", r.Attempted, r.Failed, verdict)
}
