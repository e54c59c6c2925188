package eval

import (
	"crowdassess/internal/baseline"
	"crowdassess/internal/core"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// Fig1 regenerates Figure 1: average interval size vs confidence level for
// the new technique (Algorithm A2) and the old technique [2], with m ∈
// {3, 7} workers on n = 100 regular tasks.
func Fig1(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig1",
		Title:  "Size of interval vs. confidence for old and new techniques",
		XLabel: "Confidence Level",
		YLabel: "Size of Interval",
	}
	confs := Confidences()
	const tasks = 100
	crowds := []int{3, 7}
	type rep struct {
		newSizes [][]float64 // per confidence level
		oldSizes [][]float64
		failures int
	}
	results, err := runGrid(p.Seed, len(crowds), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (rep, error) {
		out := rep{newSizes: make([][]float64, len(confs)), oldSizes: make([][]float64, len(confs))}
		ds, _, err := sim.Binary{Tasks: tasks, Workers: crowds[pt]}.Generate(src)
		if err != nil {
			return rep{}, err
		}
		deltas, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{})
		if err != nil {
			return rep{}, err
		}
		for ci, c := range confs {
			for _, d := range deltas {
				if d.Err != nil {
					out.failures++
					continue
				}
				out.newSizes[ci] = append(out.newSizes[ci], d.Est.Interval(c).ClampTo(0, 1).Size())
			}
		}
		// Old technique: one full evaluation per confidence level (its
		// union-bound propagation depends on the level).
		for ci, c := range confs {
			ivs, err := baseline.OldTechnique{Confidence: c}.Evaluate(ds)
			if err != nil {
				out.failures++
				continue
			}
			for _, iv := range ivs {
				out.oldSizes[ci] = append(out.oldSizes[ci], iv.Size())
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, m := range crowds {
		// Merge in replicate order: identical accumulation to the serial run.
		newSizes := make([][]float64, len(confs))
		oldSizes := make([][]float64, len(confs))
		for _, r := range results[pt] {
			res.Failures += r.failures
			for ci := range confs {
				newSizes[ci] = append(newSizes[ci], r.newSizes[ci]...)
				oldSizes[ci] = append(oldSizes[ci], r.oldSizes[ci]...)
			}
		}
		newSeries := Series{Label: seriesLabel("new technique", m, tasks)}
		oldSeries := Series{Label: seriesLabel("old technique", m, tasks)}
		for ci, c := range confs {
			newSeries.Points = append(newSeries.Points, Point{X: c, Y: meanOf(newSizes[ci])})
			oldSeries.Points = append(oldSeries.Points, Point{X: c, Y: meanOf(oldSizes[ci])})
		}
		res.Series = append(res.Series, newSeries, oldSeries)
	}
	return res, nil
}

func seriesLabel(tech string, m, n int) string {
	return tech + ", " + itoa(m) + " workers, " + itoa(n) + " tasks"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Fig2a regenerates Figure 2(a): interval-accuracy vs confidence level for
// the m-worker binary non-regular method, with (m, n) ∈ {3,7}×{100,300} at
// density 0.8.
func Fig2a(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig2a",
		Title:  "Accuracy of m-worker binary non-regular method in estimating confidence",
		XLabel: "Confidence Level",
		YLabel: "Accuracy",
	}
	confs := Confidences()
	configs := []struct{ m, n int }{{3, 100}, {3, 300}, {7, 100}, {7, 300}}
	results, err := runGrid(p.Seed, len(configs), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (tally, error) {
		out := newTally(len(confs))
		ds, rates, err := sim.Binary{Tasks: configs[pt].n, Workers: configs[pt].m, Density: 0.8}.Generate(src)
		if err != nil {
			return tally{}, err
		}
		deltas, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{})
		if err != nil {
			return tally{}, err
		}
		for _, d := range deltas {
			if d.Err != nil {
				out.failures++
				continue
			}
			for ci, c := range confs {
				out.record(ci, d.Est.Interval(c).ClampTo(0, 1).Contains(rates[d.Worker]))
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, cfg := range configs {
		label := itoa(cfg.m) + " workers " + itoa(cfg.n) + " tasks"
		res.Series = append(res.Series, accuracySeries(res, label, confs, results[pt]))
	}
	return res, nil
}

// Fig2b regenerates Figure 2(b): average interval size vs data density at
// c = 0.8 for (n, m) ∈ {(100,7), (300,3), (300,7)}.
func Fig2b(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig2b",
		Title:  "Size of intervals for varying levels of density",
		XLabel: "Density",
		YLabel: "Size of Interval",
	}
	const c = 0.8
	densities := Densities()
	configs := []struct{ m, n int }{{3, 300}, {7, 100}, {7, 300}}
	type rep struct {
		sizes    []float64
		failures int
	}
	// Point pt is configs[pt/len(densities)] at density
	// densities[pt%len(densities)].
	results, err := runGrid(p.Seed, len(configs)*len(densities), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (rep, error) {
		cfg, d := configs[pt/len(densities)], densities[pt%len(densities)]
		var out rep
		ds, _, err := sim.Binary{Tasks: cfg.n, Workers: cfg.m, Density: d}.Generate(src)
		if err != nil {
			return rep{}, err
		}
		deltas, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{})
		if err != nil {
			return rep{}, err
		}
		for _, wd := range deltas {
			if wd.Err != nil {
				out.failures++
				continue
			}
			out.sizes = append(out.sizes, wd.Est.Interval(c).ClampTo(0, 1).Size())
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cfg := range configs {
		s := Series{Label: itoa(cfg.m) + " workers, " + itoa(cfg.n) + " tasks"}
		for di, d := range densities {
			var sizes []float64
			for _, r := range results[ci*len(densities)+di] {
				res.Failures += r.failures
				sizes = append(sizes, r.sizes...)
			}
			s.Points = append(s.Points, Point{X: d, Y: meanOf(sizes)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig2c regenerates Figure 2(c): average interval size vs confidence with
// optimal vs uniform triple weights, m = 7 workers, n = 100 tasks and the
// heterogeneous densities dᵢ = (0.5i + m − i)/m.
func Fig2c(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig2c",
		Title:  "Size of interval vs. confidence with and without weight optimization",
		XLabel: "Confidence Level",
		YLabel: "Size of Interval",
	}
	confs := Confidences()
	const m, n = 7, 100
	densities := sim.Fig2cDensities(m)
	type rep struct {
		optSizes [][]float64
		uniSizes [][]float64
		failures int
	}
	results, err := runGrid(p.Seed, 1, p.replicates(), func(_ int, src *randx.Source, s *core.Solver) (rep, error) {
		out := rep{optSizes: make([][]float64, len(confs)), uniSizes: make([][]float64, len(confs))}
		ds, _, err := sim.Binary{Tasks: n, Workers: m, Densities: densities}.Generate(src)
		if err != nil {
			return rep{}, err
		}
		opt, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{Weights: core.OptimalWeights})
		if err != nil {
			return rep{}, err
		}
		uni, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{Weights: core.UniformWeights})
		if err != nil {
			return rep{}, err
		}
		for w := range opt {
			if opt[w].Err != nil || uni[w].Err != nil {
				out.failures++
				continue
			}
			for ci, c := range confs {
				out.optSizes[ci] = append(out.optSizes[ci], opt[w].Est.Interval(c).ClampTo(0, 1).Size())
				out.uniSizes[ci] = append(out.uniSizes[ci], uni[w].Est.Interval(c).ClampTo(0, 1).Size())
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	optSizes := make([][]float64, len(confs))
	uniSizes := make([][]float64, len(confs))
	for _, r := range results[0] {
		res.Failures += r.failures
		for ci := range confs {
			optSizes[ci] = append(optSizes[ci], r.optSizes[ci]...)
			uniSizes[ci] = append(uniSizes[ci], r.uniSizes[ci]...)
		}
	}
	with := Series{Label: "With Optimization"}
	without := Series{Label: "No Optimization"}
	for ci, c := range confs {
		with.Points = append(with.Points, Point{X: c, Y: meanOf(optSizes[ci])})
		without.Points = append(without.Points, Point{X: c, Y: meanOf(uniSizes[ci])})
	}
	res.Series = append(res.Series, without, with)
	return res, nil
}

// Fig3 regenerates Figure 3: interval accuracy vs confidence on the three
// emulated real datasets (IC, RTE, TEM), m-worker binary non-regular method,
// no preprocessing.
func Fig3(p Params) (*Result, error) {
	return realBinaryAccuracy(p, "fig3", "Accuracy of interval vs confidence", false)
}

// Fig4 regenerates Figure 4: the same protocol after pruning workers whose
// majority-vote disagreement exceeds 0.4 (the paper's spammer screen).
func Fig4(p Params) (*Result, error) {
	return realBinaryAccuracy(p, "fig4", "Accuracy of improved interval vs confidence", true)
}
