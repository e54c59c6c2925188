// Package eval reproduces the paper's evaluation: one runner per figure,
// each returning the same data series the paper plots. Runners are
// deterministic given their seed and scale with a configurable replicate
// count (the paper uses 500). Every (point, replicate) cell of a figure
// runs from one queue on every CPU (see runGrid); the result does not
// depend on GOMAXPROCS.
package eval

import "fmt"

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// Series is one named line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Result is the regenerated data of one paper figure.
type Result struct {
	Name     string // experiment id, e.g. "fig2a"
	Title    string
	XLabel   string
	YLabel   string
	Series   []Series
	Failures int // degenerate replicates/workers skipped (paper: "minuscule probability of failure")
}

// Params configures an experiment run.
type Params struct {
	// Replicates per configuration. Zero selects each runner's default:
	// the paper's 500 for fig1, fig2a–c, fig5a, fig5b and xnogold; 20 for
	// fig3 and fig4; 5 for fig5c; 10 for xmincommon.
	Replicates int
	// Seed anchors the deterministic replicate seeds.
	Seed int64
}

func (p Params) replicates() int {
	if p.Replicates <= 0 {
		return 500
	}
	return p.Replicates
}

// Confidences is the paper's confidence grid {0.05, 0.10, …, 0.95}.
func Confidences() []float64 {
	out := make([]float64, 0, 19)
	for i := 1; i <= 19; i++ {
		out = append(out, float64(i)*0.05)
	}
	return out
}

// Densities is the paper's density grid {0.5, 0.55, …, 0.95}.
func Densities() []float64 {
	out := make([]float64, 0, 10)
	for i := 0; i < 10; i++ {
		out = append(out, 0.5+0.05*float64(i))
	}
	return out
}

// Experiments names every runnable experiment: the paper's nine figures in
// paper order, then the extension experiments (prefixed "x").
func Experiments() []string {
	return []string{"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "xnogold", "xmincommon"}
}

// Run dispatches an experiment by name.
func Run(name string, p Params) (*Result, error) {
	switch name {
	case "fig1":
		return Fig1(p)
	case "fig2a":
		return Fig2a(p)
	case "fig2b":
		return Fig2b(p)
	case "fig2c":
		return Fig2c(p)
	case "fig3":
		return Fig3(p)
	case "fig4":
		return Fig4(p)
	case "fig5a":
		return Fig5a(p)
	case "fig5b":
		return Fig5b(p)
	case "fig5c":
		return Fig5c(p)
	case "xnogold":
		return XNoGold(p)
	case "xmincommon":
		return XMinCommon(p)
	}
	return nil, fmt.Errorf("eval: unknown experiment %q (known: %v)", name, Experiments())
}

// tally counts, per confidence level, the intervals that contain the
// value they estimate, plus the degenerate cases a cell skipped.
type tally struct {
	hits, totals []int
	failures     int
}

func newTally(levels int) tally {
	return tally{hits: make([]int, levels), totals: make([]int, levels)}
}

// record counts one interval at confidence index ci.
func (t *tally) record(ci int, hit bool) {
	t.totals[ci]++
	if hit {
		t.hits[ci]++
	}
}

// accuracySeries folds tallies, in order, into the series of hit fractions
// per confidence level, and adds their failures to res.
func accuracySeries(res *Result, label string, confs []float64, tallies []tally) Series {
	hits := make([]int, len(confs))
	totals := make([]int, len(confs))
	for _, t := range tallies {
		res.Failures += t.failures
		for ci := range confs {
			hits[ci] += t.hits[ci]
			totals[ci] += t.totals[ci]
		}
	}
	s := Series{Label: label}
	for ci, c := range confs {
		y := 0.0
		if totals[ci] > 0 {
			y = float64(hits[ci]) / float64(totals[ci])
		}
		s.Points = append(s.Points, Point{X: c, Y: y})
	}
	return s
}

// meanOf returns the mean of xs, or 0 for empty input.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
