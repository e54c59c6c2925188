package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crowdassess/internal/eval"
	"crowdassess/internal/obs"
)

var update = flag.Bool("update", false, "regenerate testdata/paper_sweep_golden.json")

// Two sets of samples that fall in the same obs histogram bucket read the
// same from the histogram but not from the exact quantiles.
func TestNearestRankSeparatesSamplesOneBucketMerges(t *testing.T) {
	fast, slow := make([]float64, 32), make([]float64, 32)
	hf, hs := obs.NewHistogram(nil), obs.NewHistogram(nil)
	for i := range fast {
		fast[i], slow[i] = 0.011+float64(i)*1e-5, 0.024-float64(i)*1e-5
		hf.Observe(fast[i])
		hs.Observe(slow[i])
	}
	if hf.Quantile(0.5) != hs.Quantile(0.5) {
		t.Fatalf("samples not in one bucket: histogram p50 %v vs %v", hf.Quantile(0.5), hs.Quantile(0.5))
	}
	pf, ps := nearestRank(sorted(fast), 0.5), nearestRank(sorted(slow), 0.5)
	if pf >= ps {
		t.Fatalf("nearest-rank p50 %v (fast) not below %v (slow)", pf, ps)
	}
	if pf != fast[15] {
		t.Fatalf("p50 of 32 samples is %v, want the 16th smallest %v", pf, fast[15])
	}
}

func TestTailReportableNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {5000, true}, {10, false}} {
		if got := tailReportable(c.n, 0.99); got != c.want {
			t.Errorf("tailReportable(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	var r report
	r.Metrics = map[string]metric{}
	r.latency("x", make([]float64, 999))
	if _, ok := r.Metrics["x_p99_ms"]; ok {
		t.Error("p99 of 999 samples reported")
	}
	if m := r.Metrics["x_p50_ms"]; m.Samples != 999 {
		t.Errorf("p50 sample count %d, want 999", m.Samples)
	}
}

// The quartiles -compare prints are Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3, 2, 4}, 1.5, 3, 4.5},
		{[]float64{7, 9}, 6.5, 8, 9.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// benchmarkJSON is the catalog part of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		for _, d := range want {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the program", kind, d.name, u, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
}

// layersRun names, per workload, per-layer metrics that must read non-zero
// on a traced run: the layers the workload is there to exercise.
var layersRun = map[string][]string{
	"ingest_http":     {"gate.ingest_serve_ms.p50", "gate.query_serve_ms.p50", "gate.review_serve_ms.p50", "gate.http_ms.p50", "core.add_calls", "core.evaluate_ms.p50", "core.majority_ms.p50", "core.solve_all_ms", "runtime.cpu_ms_per_op"},
	"review_sparse":   {"gate.query_serve_ms.p50", "gate.review_serve_ms.p50", "dist.evaluate_ms.p50", "dist.flush_ms.p50", "dist.pull_merge_ms", "dist.pull_bytes", "dist.wire_bytes_per_response", "store.fsync_ms.p50", "core.solve_one_ms"},
	"failover_ingest": {"dist.ingest_ms.p50", "dist.reseed_ms.p50", "dist.reseed_bytes.p50", "dist.replica_down_events", "store.fsyncs_per_ingest", "store.write_bytes_per_response", "core.solve_all_ms"},
	"paper_sweep":     {"eval.fig3_s", "eval.fig4_s", "eval.fig5b_s", "eval.fig5c_s", "runtime.gc_cycles"},
}

// runOnce runs crowdperf in-process and returns its exit status, report
// and result line.
func runOnce(t *testing.T, args ...string) (int, report, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("crowdperf %v: exit %d, %d stdout lines\nstderr:\n%s", args, code, len(lines), stderr.String())
	}
	var rep report
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	return code, rep, res
}

// TestSmoke runs every workload at 1% scale, untraced and traced: each
// passes its correctness gate, and the result line carries exactly the
// BENCHMARK.json metrics with their units.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			base := []string{"-workload", w.name, "-seed", "1", "-seconds", "0.5", "-scale", "0.01", "-workdir", t.TempDir()}
			code, rep, res := runOnce(t, base...)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v, problems %v", code, res, rep.Problems)
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced result has %d metrics, want %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			code, rep, res = runOnce(t, append(base, "-trace", "1", "-spans", spans)...)
			if code != 0 || !res.Correct || !rep.Traced {
				t.Fatalf("traced: exit %d, result %+v, problems %v", code, res, rep.Problems)
			}
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("traced result has %d metrics, want %d", len(res.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range layersRun[w.name] {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s reads %v; the workload runs that layer", name, res.Metrics[name].Value)
				}
			}
			data, err := os.ReadFile(spans)
			if err != nil || !bytes.Contains(data, []byte(`"name":"client.`)) {
				t.Errorf("spans file: %v, %d bytes without client spans", err, len(data))
			}
		})
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch", "-workdir", t.TempDir()},
		{"-workload", "paper_sweep", "-trace", "2"},
		{"-workload", "paper_sweep", "-seconds", "0"},
		{"-workload", "paper_sweep", "-spans", "x.jsonl"},
		{"-compare", "a.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// The smoke-scale goldens are checked here; the full-scale ones by every
// paper_sweep run with seed 1, 2 or 3. -update regenerates both.
func TestPaperSweepGoldens(t *testing.T) {
	if *update {
		g := goldens{}
		for _, reps := range []int{1, sweepReplicates} {
			g[strconv.Itoa(reps)] = map[string]map[string]string{}
			for seed := int64(1); seed <= 3; seed++ {
				figs := map[string]string{}
				for _, fig := range sweepFigures {
					sum, _, err := sweepFigure(fig, eval.Params{Replicates: reps, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					figs[fig] = sum
				}
				g[strconv.Itoa(reps)][strconv.FormatInt(seed, 10)] = figs
			}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "paper_sweep_golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range sweepFigures {
		sum, _, err := sweepFigure(fig, eval.Params{Replicates: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := g["1"]["1"][fig]; sum != want {
			t.Errorf("%s at 1 replicate, seed 1: SHA-256 %s, golden %q", fig, sum, want)
		}
	}
	for seed := 1; seed <= 3; seed++ {
		if len(g[strconv.Itoa(sweepReplicates)][strconv.Itoa(seed)]) != len(sweepFigures) {
			t.Errorf("no full-scale goldens for seed %d", seed)
		}
	}
}

// writeRuns saves one report line per value of a metric, as a run's
// standard output would hold it.
func writeRuns(t *testing.T, dir, name string, numCPU int, values ...float64) []string {
	t.Helper()
	var paths []string
	for i, v := range values {
		r := report{Workload: "w", NumCPU: numCPU, GoMaxProcs: numCPU, Metrics: map[string]metric{
			"op_p50_ms": {Value: v, Unit: "ms"},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+strconv.Itoa(i)+".json")
		if err := os.WriteFile(p, append(data, "\n{\"correct\":true}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, dir, "a", 2, 10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		name    string
		b       []string
		code    int
		verdict string
	}{
		{"same", writeRuns(t, dir, "same", 2, 10.2, 10, 9.95, 10.1, 10), 0, "same"},
		{"worse", writeRuns(t, dir, "worse", 2, 12, 12.1, 11.9, 12, 12.05), 1, "worse"},
		{"noisy", writeRuns(t, dir, "noisy", 2, 8, 14, 10, 16, 6), 1, "unresolved"},
		{"better", writeRuns(t, dir, "better", 2, 8, 8.1, 7.9, 8, 8.05), 0, "better"},
		{"other hardware", writeRuns(t, dir, "hw", 4, 10, 10, 10), 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append(append([]string{"-compare", "-benchmark", spec}, base...), "--"), c.b...)
		code := run(args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d; output:\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
	}
}
