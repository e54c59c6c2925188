package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is what -compare reads from BENCHMARK.json: each
// metric's direction and, for end-to-end metrics, its bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadReports reads every report line of the given files: each file is a
// saved standard output of crowdperf.
func loadReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		found := false
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var r report
			if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" {
				continue // the result line, or text that is not a report
			}
			out = append(out, &r)
			found = true
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !found {
			return nil, fmt.Errorf("%s: no crowdperf report line", p)
		}
	}
	return out, nil
}

// compareRow is one workload × metric line of the comparison.
type compareRow struct {
	workload, metric, unit string
	a, b                   []float64
	verdict                string
}

// runCompare implements -compare A.json... -- B.json....
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "crowdperf: -compare needs A.json... -- B.json...")
		return 2
	}
	a, err := loadReports(args[:sep])
	if err == nil {
		var b []*report
		if b, err = loadReports(args[sep+1:]); err == nil {
			var spec benchmarkSpec
			if spec, err = readBenchmarkSpec(benchPath); err == nil {
				return compareReports(a, b, spec, stdout, stderr)
			}
		}
	}
	fmt.Fprintf(stderr, "crowdperf: %v\n", err)
	return 2
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// compareReports prints the comparison and returns the exit status: 1
// when any bounded metric got worse or is unresolved, 2 when the runs
// cannot be compared.
func compareReports(a, b []*report, spec benchmarkSpec, stdout, stderr io.Writer) int {
	hw := map[string]bool{}
	for _, r := range append(append([]*report(nil), a...), b...) {
		hw[fmt.Sprintf("numcpu=%d gomaxprocs=%d", r.NumCPU, r.GoMaxProcs)] = true
	}
	if len(hw) > 1 {
		fmt.Fprintf(stderr, "crowdperf: refusing to compare runs from different hardware: %s\n", strings.Join(sortedKeys(hw), ", "))
		return 2
	}
	tracedA, okA := uniformTraced(a)
	tracedB, okB := uniformTraced(b)
	if !okA || !okB {
		fmt.Fprintln(stderr, "crowdperf: each side must be all traced or all untraced runs")
		return 2
	}
	overhead := tracedA != tracedB

	bound := map[string]float64{}
	better := map[string]string{}
	var order []string
	for _, m := range spec.EndToEnd {
		bound[m.Name], better[m.Name] = m.Bound, m.Better
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}

	byWorkload := func(rs []*report) map[string][]*report {
		out := map[string][]*report{}
		for _, r := range rs {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var rows []compareRow
	for _, w := range sortedKeys(wa) {
		if len(wb[w]) == 0 {
			fmt.Fprintf(stderr, "crowdperf: workload %s has no B runs; skipped\n", w)
			continue
		}
		names := map[string]string{}
		for _, r := range append(append([]*report(nil), wa[w]...), wb[w]...) {
			for name, m := range r.Metrics {
				names[name] = m.Unit
			}
		}
		metrics := append([]string(nil), order...)
		for _, name := range sortedKeys(names) {
			if _, ok := bound[name]; !ok {
				metrics = append(metrics, name)
			}
		}
		for _, name := range metrics {
			row := compareRow{workload: w, metric: name, unit: names[name],
				a: values(wa[w], name), b: values(wb[w], name)}
			if len(row.a) == 0 || len(row.b) == 0 {
				continue
			}
			row.verdict = verdict(row.a, row.b, better[name], bound[name], overhead)
			rows = append(rows, row)
		}
	}

	status := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	mode := "A → B"
	if overhead {
		mode = "untraced → traced: the change is tracing overhead"
		if tracedA {
			mode = "traced → untraced"
		}
	}
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tverdict (%s)\n", mode)
	for _, r := range rows {
		_, medA, _ := quartiles(r.a)
		_, medB, _ := quartiles(r.b)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.workload, r.metric, r.unit,
			summary(r.a), summary(r.b), relChange(medA, medB), r.verdict)
		if r.verdict == "worse" || r.verdict == "unresolved" {
			status = 1
		}
	}
	tw.Flush()
	return status
}

func uniformTraced(rs []*report) (traced, ok bool) {
	for _, r := range rs {
		if r.Traced != rs[0].Traced {
			return false, false
		}
	}
	return rs[0].Traced, true
}

func values(rs []*report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric. A metric without a bound is
// shown, not judged. One whose run-to-run spread on either side exceeds
// its bound is unresolved, unless every B run beats every A run.
func verdict(a, b []float64, better string, bound float64, overhead bool) string {
	if overhead {
		return "overhead"
	}
	if bound == 0 || (better != "lower" && better != "higher") {
		return "-"
	}
	sign := 1.0 // positive worse means B is worse
	if better == "higher" {
		sign = -1
	}
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && sign*(medB-medA) < -bound*math.Abs(medA):
		return "better"
	case spread(q1a, medA, q3a) > bound || spread(q1b, medB, q3b) > bound:
		return "unresolved"
	case sign*(medB-medA) > bound*math.Abs(medA):
		return "worse"
	case sign*(medB-medA) < -bound*math.Abs(medA):
		return "better"
	}
	return "same"
}

// spread is the interquartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", med, q1, q3, len(xs))
}

func relChange(a, b float64) string {
	if a == b {
		return "0%"
	}
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/math.Abs(a))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
